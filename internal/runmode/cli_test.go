package runmode_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rumor/internal/experiments"
	"rumor/internal/obs"
	"rumor/internal/service"
)

// startDaemon spins up the rumord HTTP surface (jobs + experiments) on
// an ephemeral port; instrumented daemons also serve GET /metrics.
func startDaemon(t *testing.T, instrumented bool) string {
	t.Helper()
	var observ *service.Observability
	if instrumented {
		observ = service.NewObservability(obs.NewRegistry(), nil)
	}
	sched := service.NewScheduler(service.SchedulerConfig{
		Workers: 2,
		Results: service.NewResultCache(0),
		Graphs:  service.NewGraphCache(0),
		Obs:     observ,
	})
	srv := service.NewServer(sched, service.WithObservability(observ))
	experiments.Mount(srv, sched)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	})
	return ts.URL
}

// TestCLIModeTable drives the real experiments and rumorsim binaries
// through every execution mode the shared constructor builds. Per mode:
// stdout is byte-identical to the local run, -metrics-out parses and
// carries that mode's families, and nothing else does. Then every flag
// conflict, with its message, and the flags each binary must not have.
func TestCLIModeTable(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/experiments", "./cmd/rumorsim")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the CLIs: %v\n%s", err, out)
	}
	daemon := startDaemon(t, true)
	peers := startDaemon(t, false) + "," + startDaemon(t, false)
	cacheDir := filepath.Join(t.TempDir(), "cache")

	// run executes one CLI and returns its stdout, stderr and exit error.
	run := func(name string, args ...string) (string, string, error) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		return stdout.String(), stderr.String(), err
	}

	local := []string{"rumor_scheduler_", "rumor_cache_"}
	type mode struct {
		name     string
		args     []string
		families []string // family-name prefixes the snapshot must carry
		absent   string   // a prefix it must not carry
		check    func(t *testing.T, sc obs.Scrape)
	}
	cells := func(sc obs.Scrape, outcome string) (n float64) { // over every cell kind
		if fam := sc["rumor_scheduler_cells_total"]; fam != nil {
			for _, s := range fam.Samples {
				if s.Labels["outcome"] == outcome {
					n += s.Value
				}
			}
		}
		return n
	}
	clis := []struct {
		name  string
		base  []string
		modes []mode
	}{
		{"experiments", []string{"-quick", "-run", "E12", "-seed", "1"}, []mode{
			{name: "-cache-dir cold", args: []string{"-cache-dir", cacheDir}, families: local, absent: "rumor_shard_",
				check: func(t *testing.T, sc obs.Scrape) {
					if cells(sc, "computed") == 0 || cells(sc, "cached") != 0 {
						t.Errorf("cold run: computed=%v cached=%v", cells(sc, "computed"), cells(sc, "cached"))
					}
				}},
			{name: "-cache-dir warm", args: []string{"-cache-dir", cacheDir}, families: local, absent: "rumor_shard_",
				check: func(t *testing.T, sc obs.Scrape) {
					if cells(sc, "computed") != 0 || cells(sc, "cached") == 0 {
						t.Errorf("warm run: computed=%v cached=%v", cells(sc, "computed"), cells(sc, "cached"))
					}
				}},
			{name: "-server", args: []string{"-server", daemon}, families: []string{"rumor_scheduler_", "rumor_http_"}, absent: "rumor_shard_"},
			{name: "-peers", args: []string{"-peers", peers}, families: []string{"rumor_shard_"}, absent: "rumor_scheduler_",
				check: func(t *testing.T, sc obs.Scrape) {
					if v, _ := sc.Value("rumor_shard_peers", nil); v != 2 {
						t.Errorf("rumor_shard_peers = %v, want 2", v)
					}
				}},
		}},
		{"rumorsim", []string{"-graph", "hypercube", "-sweep", "64,128", "-timing", "both", "-trials", "20", "-csv"}, []mode{
			{name: "-server", args: []string{"-server", daemon}, families: []string{"rumor_scheduler_", "rumor_http_"}, absent: "rumor_shard_"},
		}},
	}
	for _, cli := range clis {
		var want string // the local run's stdout
		modes := append([]mode{{name: "local", families: local, absent: "rumor_shard_"}}, cli.modes...)
		for _, m := range modes {
			t.Run(cli.name+" "+m.name, func(t *testing.T) {
				snap := filepath.Join(t.TempDir(), "snap.prom")
				got, stderr, err := run(cli.name, slices.Concat(cli.base, m.args, []string{"-metrics-out", snap})...)
				if err != nil || got == "" {
					t.Fatalf("%v\n%s", err, stderr)
				}
				if m.name == "local" {
					want = got
				} else if got != want {
					t.Errorf("stdout diverged from the local run\nlocal:\n%s\n%s:\n%s", want, m.name, got)
				}
				f, err := os.Open(snap)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				sc, err := obs.ParseText(f)
				if err != nil {
					t.Fatalf("-metrics-out is not a Prometheus exposition: %v", err)
				}
				for _, prefix := range m.families {
					if !hasFamily(sc, prefix) {
						t.Errorf("snapshot has no %s* family; got %v", prefix, sc.Names())
					}
				}
				if hasFamily(sc, m.absent) {
					t.Errorf("snapshot carries %s* families; got %v", m.absent, sc.Names())
				}
				if m.check != nil {
					m.check(t, sc)
				}
			})
		}
	}

	const dead = "http://127.0.0.1:1"
	for _, tc := range []struct {
		cli  string
		args []string
		want string // substring of the error on stderr
	}{
		{"experiments", []string{"-server", dead, "-cache-dir", cacheDir}, "-cache-dir is in-process only; with -server, caching is the daemon's (-result-cache/-cache-dir)"},
		{"experiments", []string{"-server", "://bad"}, "://bad"},
		{"experiments", []string{"-peers", dead, "-server", dead}, "-peers is incompatible with -server"},
		{"experiments", []string{"-peers", dead, "-cache-dir", cacheDir}, "-cache-dir is in-process only; with -peers"},
		{"experiments", []string{"-peers", " , "}, "-peers: "},
		{"experiments", []string{"-bench", "b.json"}, "flag provided but not defined: -bench"},
		{"experiments", []string{"-bench-large"}, "flag provided but not defined: -bench-large"},
		{"experiments", []string{"-cache"}, "flag provided but not defined: -cache"},
		{"rumorsim", []string{"-server", dead, "-curve"}, "-curve runs in-process only"},
		{"rumorsim", []string{"-server", "://bad"}, "://bad"},
		{"rumorsim", []string{"-peers", dead}, "flag provided but not defined: -peers"},
		{"rumorsim", []string{"-cache-dir", cacheDir}, "flag provided but not defined: -cache-dir"},
		{"rumorsim", []string{"-cache"}, "flag provided but not defined: -cache"},
	} {
		_, stderr, err := run(tc.cli, tc.args...)
		if err == nil {
			t.Errorf("%s %v: accepted", tc.cli, tc.args)
		} else if !strings.Contains(stderr, tc.want) {
			t.Errorf("%s %v: stderr %q lacks %q", tc.cli, tc.args, stderr, tc.want)
		}
	}
}

func hasFamily(sc obs.Scrape, prefix string) bool {
	for _, name := range sc.Names() {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}
