package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rumor/client"
	"rumor/internal/cachestore"
	"rumor/internal/experiments"
	"rumor/internal/obs"
	"rumor/internal/service"
)

// rumord's defaults (cmd/rumord/main.go flags). The in-process daemons
// are wired exactly like that main with these values, because that is
// what users run.
const (
	rumordQueue        = 4096
	rumordResultCache  = 4096
	rumordGraphCache   = 64
	rumordJobRetention = 256
)

// daemonConfig is what varies between the benchmark's daemons.
type daemonConfig struct {
	workers  int    // 0 = all cores, as rumord -workers 0
	cacheDir string // "" = in-memory LRU only
	noObs    bool   // the obs.overhead_ratio probe's nil-Observability side
}

// daemon is one in-process rumord on an ephemeral loopback listener.
type daemon struct {
	cfg    daemonConfig
	reg    *obs.Registry
	sched  *service.Scheduler
	tiered *service.TieredResultCache
	srv    *http.Server
	served chan error
	addr   string // host:port actually bound
}

func startDaemon(cfg daemonConfig) (*daemon, error) {
	d := &daemon{cfg: cfg}
	var observ *service.Observability
	var csMetrics *cachestore.Metrics
	if !cfg.noObs {
		logger, err := obs.NewLogger(io.Discard, "text", "info")
		if err != nil {
			return nil, err
		}
		d.reg = obs.NewRegistry()
		observ = service.NewObservability(d.reg, logger)
		csMetrics = cachestore.NewMetrics(d.reg)
	}
	var results service.ResultStore
	lru := service.NewResultCache(rumordResultCache)
	results = lru
	if cfg.cacheDir != "" {
		store, err := cachestore.Open(cachestore.Options{
			Dir:            cfg.cacheDir,
			KeyVersion:     service.CellKeyVersion,
			CompatVersions: service.CellKeyCompatVersions(),
			Metrics:        csMetrics,
		})
		if err != nil {
			return nil, fmt.Errorf("opening cache store: %w", err)
		}
		d.tiered = service.NewTieredResultCache(lru, store)
		results = d.tiered
	}
	d.sched = service.NewScheduler(service.SchedulerConfig{
		Workers:      cfg.workers,
		QueueLimit:   rumordQueue,
		TrialWorkers: 1,
		JobRetention: rumordJobRetention,
		Results:      results,
		Graphs:       service.NewGraphCache(rumordGraphCache),
		Obs:          observ,
	})
	api := service.NewServer(d.sched, service.WithObservability(observ))
	experiments.Mount(api, d.sched)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.srv = &http.Server{Handler: api}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

func (d *daemon) url() string { return "http://" + d.addr }

// stop drains like rumord's SIGTERM path: HTTP, then the scheduler,
// then the persistent tier. It is safe on a half-started daemon.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if d.srv != nil {
		_ = d.srv.Shutdown(ctx) // the listener goes with it
		<-d.served
		d.srv = nil
	}
	if d.sched != nil {
		_ = d.sched.Shutdown(ctx)
		d.sched = nil
	}
	if d.tiered != nil {
		_ = d.tiered.Close() // second Close after an explicit one is a no-op
		d.tiered = nil
	}
}

// loopback is an HTTP transport that resolves fixed host names to
// whatever ephemeral listeners the run happened to get. The shard ring
// hashes peer URLs, so naming peers by their random ports would change
// the partition — and the work per peer — on every run.
type loopback struct {
	routes map[string]string // "peer-0.bench:80" -> "127.0.0.1:41234"
	tr     *http.Transport
}

func newLoopback(routes map[string]string) *loopback {
	lb := &loopback{routes: routes}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	lb.tr = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if to, ok := lb.routes[addr]; ok {
				addr = to
			}
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: 16,
	}
	return lb
}

func (lb *loopback) client() *http.Client { return &http.Client{Transport: lb.tr} }
func (lb *loopback) close()               { lb.tr.CloseIdleConnections() }

// newClients returns n SDK clients for the daemon, all on one transport
// of the benchmark's own (so tear-down can close its idle connections).
func newClients(d *daemon, n int) ([]*client.Client, *loopback, error) {
	lb := newLoopback(nil)
	out := make([]*client.Client, n)
	for i := range out {
		c, err := client.New(d.url(), client.WithHTTPClient(lb.client()))
		if err != nil {
			return nil, nil, err
		}
		out[i] = c
	}
	return out, lb, nil
}

// describeMachine states the assumptions the numbers rest on.
func describeMachine(e *env) {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if i := strings.Index(line, ":"); i >= 0 {
					model = strings.TrimSpace(line[i+1:])
				}
				break
			}
		}
	}
	var caches []string
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err1 := os.ReadFile(dir + "level")
		size, err2 := os.ReadFile(dir + "size")
		typ, _ := os.ReadFile(dir + "type")
		if err1 != nil || err2 != nil {
			break
		}
		caches = append(caches, fmt.Sprintf("L%s %s %s", strings.TrimSpace(string(level)),
			strings.TrimSpace(string(typ)), strings.TrimSpace(string(size))))
	}
	e.notef("machine: nproc=%d cpu=%q caches=[%s] %s %s/%s", e.nproc, model,
		strings.Join(caches, ", "), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	e.notef("scratch: %s on %s; sockets are loopback, not a real link", e.tmp, fsType(e.tmp))
	e.notef("scale=%s seed=%d seconds=%g", e.sc.name, e.seed, e.seconds)
}

// fsType names the filesystem under path: the cachestore fsyncs, so
// tmpfs and a disk give different numbers.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown filesystem"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4 (disk)"
	case 0x58465342:
		return "xfs (disk)"
	case 0x9123683E:
		return "btrfs (disk)"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("filesystem type %#x", uint32(st.Type))
	}
}
