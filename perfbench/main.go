// Command perfbench is the repository benchmark: one workload per
// invocation against a 16-replica h-grid cluster running in-process over
// loopback TCP. It prints one JSON result as its last line of output.
//
//	perfbench -workload kv-batched -seed 1 -seconds 35 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced run;
// with -trace 1 it reports per-layer metrics from public counters and a
// separately traced run. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type workload struct {
	gateway   bool    // clients go through gateway.Serve to one lease-holding session
	disk      bool    // every replica on the WAL backend
	slots     int     // ops each client keeps in flight
	reads     float64 // read share
	zipf      float64 // key skew (0: uniform)
	valueSize int
	warmupOps int
}

var workloads = map[string]workload{
	"kv-batched": {
		slots: window * batch, reads: 0.5, valueSize: 16,
		warmupOps: 100_000,
	},
	"gw-lease-read": {
		gateway: true, slots: 32, reads: 0.95, zipf: 1.1, valueSize: 16,
		warmupOps: 100_000,
	},
	"wal-write": {
		disk: true, slots: window * batch, reads: 0.1, valueSize: 128,
		warmupOps: 50_000,
	},
}

const (
	setups     = 3           // set-ups per untraced run; setup_s is their median
	faultSpan  = time.Second // load kept running after the crash
	runTimeout = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: kv-batched, gw-lease-read or wal-write")
	seed := flag.Int64("seed", 1, "seed for the generated op streams")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a traced run")
	data := flag.String("data", ".bench_build/data", "parent directory for WAL data")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload kv-batched|gw-lease-read|wal-write -seed N -seconds N -trace 0|1")
		os.Exit(2)
	}
	time.AfterFunc(runTimeout, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runTimeout)
		os.Exit(1)
	})
	info := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, info: info}
	b.dataRoot = filepath.Join(*data, fmt.Sprintf("run-%d", os.Getpid()))
	var res result
	var err error
	if *trace == 0 {
		res, err = b.untraced()
	} else {
		res, err = b.traced()
	}
	os.RemoveAll(b.dataRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(info)
	if err == nil {
		fmt.Println(string(out))
	}
	if out, err = json.Marshal(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type bench struct {
	w        workload
	seed     int64
	window   time.Duration
	dataRoot string
	info     map[string]any
	t0       time.Time
	streams  []*stream
	keys     []string
	lat      *latPair // the measured window's latencies
	rigs     int
}

// prepare generates every input before any clock starts.
func (b *bench) prepare() {
	b.t0 = time.Now()
	b.streams = genStreams(b.seed, b.w)
	b.keys = make([]string, nkeys)
	for k := range b.keys {
		b.keys[k] = fmt.Sprintf("k%04d", k)
	}
	b.lat = new(latPair)
}

// newRig builds one cluster and returns it with its set-up time.
func (b *bench) newRig(traced bool) (*rig, time.Duration, error) {
	b.rigs++
	r := &rig{w: b.w, traced: traced, t0: b.t0}
	if b.w.disk {
		r.dataDir = filepath.Join(b.dataRoot, strconv.Itoa(b.rigs))
	}
	runtime.GC()
	start := time.Now()
	err := r.build(b.streams, b.keys, b.lat)
	setup := time.Since(start)
	if err != nil {
		r.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return r, setup, nil
}

// finish stops the rig's load, runs the output check and tears it down.
func (b *bench) finish(r *rig, victim int) error {
	err := r.stop()
	if err == nil {
		err = r.check(victim)
	}
	if cerr := r.close(); err == nil {
		err = cerr
	}
	return err
}

// measure runs the rig's steady-state window and returns the counters
// at both ends and the successful ops completed in each second. A traced
// rig samples every op during the window only.
func (b *bench) measure(r *rig, d time.Duration) (c0, c1 counters, elapsed time.Duration, perSec []float64) {
	l := r.load
	b.lat.reset()
	if r.session != nil {
		r.session.hist.reset()
	}
	if r.traced {
		r.setSample(1)
	}
	c0 = snapshot(r)
	steal0, total0 := cpuTicks()
	start := time.Now()
	l.phase.Store(phaseWindow)
	for prev := uint64(0); time.Since(start) < d; {
		time.Sleep(min(time.Second, d-time.Since(start)))
		ok := l.winReads.Load() + l.winWrites.Load() - l.winFailed.Load()
		perSec = append(perSec, float64(ok-prev))
		prev = ok
	}
	l.phase.Store(phaseIdle)
	elapsed = time.Since(start)
	c1 = snapshot(r)
	if steal1, total1 := cpuTicks(); total1 > total0 {
		b.info["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	if r.traced {
		r.setSample(0)
	}
	return c0, c1, elapsed, perSec
}

func (b *bench) untraced() (result, error) {
	b.prepare()
	var setupTimes []float64
	var r *rig
	var checkErr error
	for i := 0; i < setups; i++ {
		rr, setup, err := b.newRig(false)
		if err != nil {
			return result{}, err
		}
		setupTimes = append(setupTimes, setup.Seconds())
		if i == setups-1 {
			r = rr
			break
		}
		if err := b.finish(rr, -1); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	c0, c1, elapsed, perSec := b.measure(r, b.window)
	l := r.load
	winOps := l.winReads.Load() + l.winWrites.Load()
	okOps := winOps - l.winFailed.Load()

	victim := busiest(r, c0, c1)
	l.lastDone.Store(l.now())
	l.phase.Store(phaseFault)
	r.mesh.Node(victim).Close()
	time.Sleep(faultSpan)
	if gap := l.now() - l.lastDone.Load(); gap > l.maxGap.Load() {
		l.maxGap.Store(gap)
	}
	stall := time.Duration(l.maxGap.Load())
	b.info["fault_victim"] = victim
	rssMB := peakRSSMB()
	if err := b.finish(r, victim); err != nil && checkErr == nil {
		checkErr = err
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", checkErr)
	}
	b.info["setup_s_all"] = setupTimes

	m := map[string]metric{
		"setup_s":          {median(setupTimes), "s"},
		"throughput_ops_s": {float64(okOps) / elapsed.Seconds(), "ops/s"},
		"read_p50_us":      {quantile(0.5, &b.lat.r) / 1e3, "us"},
		"write_p50_us":     {quantile(0.5, &b.lat.w) / 1e3, "us"},
		"lat_p99_us":       {quantile(0.99, &b.lat.r, &b.lat.w) / 1e3, "us"},
		"rss_peak_mb":      {rssMB, "MB"},
		"fault_stall_ms":   {float64(stall) / 1e6, "ms"},
	}
	b.info["window_ops"] = winOps
	b.info["ops_per_second"] = perSec
	return result{
		Correct:   checkErr == nil,
		Attempted: winOps + l.faultOps.Load(),
		Failed:    l.winFailed.Load() + l.faultFailed.Load(),
		Metrics:   m,
	}, nil
}

// traced runs the workload twice, each for half the window: untraced
// for the counter-based per-layer metrics, then with every handler and
// the gateway session shimmed and optrace sampling every op.
func (b *bench) traced() (result, error) {
	b.prepare()
	half := b.window / 2
	r, _, err := b.newRig(false)
	if err != nil {
		return result{}, err
	}
	c0, c1, elapsed, _ := b.measure(r, half)
	l := r.load
	ops, failed := l.winReads.Load()+l.winWrites.Load(), l.winFailed.Load()
	m := counterMetrics(r, c0, c1, ops, l.winReads.Load(), l.winWrites.Load())
	plainTput := float64(ops-failed) / elapsed.Seconds()
	checkErr := b.finish(r, -1)
	attempted := ops

	if r, _, err = b.newRig(true); err != nil {
		return result{}, err
	}
	c0, c1, elapsed, _ = b.measure(r, half)
	snap, err := r.traceSnapshot()
	if err != nil {
		r.close()
		return result{}, err
	}
	l = r.load
	ops = l.winReads.Load() + l.winWrites.Load()
	attempted += ops
	failed += l.winFailed.Load()
	tracedTput := float64(ops-l.winFailed.Load()) / elapsed.Seconds()
	overhead := 0.0
	if r.session != nil {
		overhead = (quantile(0.5, &b.lat.r, &b.lat.w) - quantile(0.5, r.session.hist)) / 1e3
	}
	if err := b.finish(r, -1); err != nil && checkErr == nil {
		checkErr = err
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", checkErr)
	}

	for k, v := range stageMetrics(snap) {
		m[k] = v
	}
	m["rkv.handler_us_per_op"] = metric{ratio(float64(c1.busy-c0.busy)/1e3, float64(ops)), "us"}
	m["gateway.overhead_p50_us"] = metric{overhead, "us"}
	m["trace.overhead_frac"] = metric{1 - tracedTput/plainTput, "frac"}
	b.info["untraced_ops_s"] = plainTput
	b.info["traced_ops_s"] = tracedTput
	b.info["trace_sampled"] = snap.Sampled
	return result{Correct: checkErr == nil, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the machine's stolen and total CPU ticks from
// /proc/stat (zeros where it is unreadable). Steal is time the
// hypervisor gave this VM's CPUs to someone else; the info line reports
// its share of the window, because it moves every timing metric.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
