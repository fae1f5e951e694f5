package bench

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynctrl/internal/client"
)

// Env is where a benchmark process works: the checkout it was started in
// and the scratch directory holding the built daemon, WAL directories and
// trace files. Everything it writes stays under Scratch.
type Env struct {
	Root    string // directory holding BENCHMARK.json
	Scratch string // Root/.bench_build
	Bin     string // the built dynctrld
}

// FindRoot walks up from the working directory to the one holding
// BENCHMARK.json.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// NewEnv builds the daemon from the checkout's source into its scratch
// directory. The go tool's cache makes every build after the first cheap.
func NewEnv(root string) (*Env, error) {
	env := &Env{Root: root, Scratch: filepath.Join(root, ".bench_build")}
	if err := os.MkdirAll(env.Scratch, 0o755); err != nil {
		return nil, err
	}
	env.Bin = filepath.Join(env.Scratch, "dynctrld")
	build := exec.Command("go", "build", "-o", env.Bin, "./cmd/dynctrld")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build dynctrld: %v\n%s", err, out)
	}
	// One throwaway boot: the first exec of a freshly written binary pages
	// it in, which no later one pays, and boot time is measured.
	d, err := env.StartDaemon("-nodes", "1", "-log-level", "error")
	if err != nil {
		return nil, err
	}
	defer d.Kill()
	cl, err := d.Dial()
	if err != nil {
		return nil, err
	}
	cl.Close()
	return env, nil
}

// Describe is the one-line record of what the numbers were measured on.
func (e *Env) Describe() string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return fmt.Sprintf("nproc=%d (closed loops: generator and daemon confined to 1, GOMAXPROCS=1 in both) go=%s kernel=%s wal_fs=%s net=\"loopback, not a link\" conns=%d scale=1/%d",
		runtime.NumCPU(), runtime.Version(), strings.TrimSpace(string(kernel)),
		fsName(e.Scratch), Conns, Scale)
}

// fsName names the filesystem holding dir, where the WAL is written.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// Daemon is one dynctrld child process, configured by flags alone.
type Daemon struct {
	Addr    string
	metrics string
	cmd     *exec.Cmd
	stderr  bytes.Buffer
	exited  chan struct{} // closed once the process has been waited for
}

// Listening ports come from below the kernel's default ephemeral range
// (32768 and up): a port the kernel hands out for ":0" can be taken again,
// between the probe and the daemon's bind, by one of this process's own
// outgoing connections, and a run makes thousands of those.
const (
	firstPort = 20000
	lastPort  = 30000
)

var nextPort = firstPort + os.Getpid()%(lastPort-firstPort)

// freeAddr returns a loopback address nothing listens on, probing by
// binding and releasing it. Not safe for concurrent use; daemons are
// started one at a time.
func freeAddr() (string, error) {
	for tries := 0; tries < lastPort-firstPort; tries++ {
		addr := fmt.Sprintf("127.0.0.1:%d", nextPort)
		if nextPort++; nextPort == lastPort {
			nextPort = firstPort
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		return addr, nil
	}
	return "", fmt.Errorf("no free loopback port in [%d, %d)", firstPort, lastPort)
}

// daemonFlags are the flags a workload's daemon always gets.
func daemonFlags(w Workload) []string {
	return []string{
		"-topology", w.Topology.Kind,
		"-nodes", strconv.Itoa(w.Topology.Nodes),
		"-seed", strconv.Itoa(topologySeed),
		"-m", strconv.FormatInt(w.M, 10),
		"-w", strconv.FormatInt(w.W, 10),
		"-log-level", "error",
	}
}

// StartDaemon execs the daemon on two fresh loopback ports. It returns as
// soon as the process is started; Dial waits for it to serve.
func (e *Env) StartDaemon(flags ...string) (*Daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	metrics, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &Daemon{Addr: addr, metrics: metrics, exited: make(chan struct{})}
	d.cmd = exec.Command(e.Bin, append([]string{"-addr", addr, "-metrics", metrics}, flags...)...)
	d.cmd.Stderr = &d.stderr
	// The child must not outlive this process, however it ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait() //nolint:errcheck // a killed daemon is the expected exit
		close(d.exited)
	}()
	return d, nil
}

// Dial connects one single-connection client, retrying while the daemon
// boots. The wait is part of what set-up and recovery time measure, so the
// retries do not sleep: a refused loopback connect returns in tens of
// microseconds, a sleeping timer on this class of VM overshoots by up to a
// millisecond. The retries are bare connects, because a client.Dial
// allocates its buffers every time, and the garbage of thousands of
// attempts would have this process's collector compete with the booting
// daemon for the two cores.
func (d *Daemon) Dial() (*client.Client, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		nc, err := net.Dial("tcp", d.Addr)
		if err == nil {
			nc.Close()
			return client.Dial(d.Addr, client.Options{Conns: 1})
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("daemon exited: %v\n%s", err, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial daemon: %v", err)
		}
	}
}

// Kill is kill -9: no drain, no final checkpoint. It waits for the process
// to be gone.
func (d *Daemon) Kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-d.exited
}

// CPU returns the processor time the daemon has used so far, summed over
// its threads from /proc/<pid>/task/*/schedstat (nanosecond resolution;
// /proc/<pid>/stat counts the same time in 10 ms ticks, which is too coarse
// for a window of under a second).
func (d *Daemon) CPU() (time.Duration, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", d.cmd.Process.Pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", d.cmd.Process.Pid)
	}
	var total int64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", p, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// PeakRSSMiB returns the daemon's resident-set high-water mark (VmHWM).
func (d *Daemon) PeakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %v", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// Scraped is one /metricsz exposition: sample name with its label set, as
// rendered, to value.
type Scraped map[string]float64

// tenant returns the sample of a per-tenant family for the default tenant.
func (s Scraped) tenant(family string) float64 {
	return s[family+`{tenant="default"}`]
}

// quantile returns one quantile of a per-tenant summary family, in
// microseconds. stage is empty for families without a stage label.
func (s Scraped) quantileUS(family, stage, q string) float64 {
	labels := `{tenant="default",`
	if stage != "" {
		labels += `stage="` + stage + `",`
	}
	return s[family+labels+`quantile="`+q+`"}`] * 1e6
}

// Scrape reads the daemon's /metricsz.
func (d *Daemon) Scrape() (Scraped, error) {
	resp, err := http.Get("http://" + d.metrics + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := Scraped{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty /metricsz")
	}
	return out, nil
}
