// Command exocored is the long-running evaluation daemon: it keeps one
// warm runner.Engine and serves evaluation and DSE-sweep queries over a
// JSON HTTP API (see internal/serve for the endpoints and semantics).
//
// Usage:
//
//	exocored -addr 127.0.0.1:8080
//	curl -s localhost:8080/healthz
//	curl -s -d '{"bench":"mm","core":"OOO2"}' localhost:8080/v1/evaluate
//	curl -s -d '{"designs":["IO2","OOO2-SDN"]}' localhost:8080/v1/sweep
//
// The engine-shaping flags are the unified set (-maxdyn, -workers, -v,
// -trace, ...); one daemon serves exactly one -maxdyn budget. SIGINT or
// SIGTERM drains in-flight work within -drain and exits 0.
//
// The telemetry plane is always on: a bounded flight-recorder ring
// tracer (-flight-spans) tags every span with its request ID and backs
// GET /debug/requests/{id}/trace, a runtime sampler (-obs-interval)
// feeds go.* instruments into /metricsz (scrapeable as Prometheus text
// via ?format=prom), and -pprof mounts net/http/pprof.
//
// Fabric roles (-role): "single" (the default) serves everything
// itself; "replica" is the same daemon acknowledging it sits behind a
// coordinator; "coordinator" evaluates nothing — it shards /v1/sweep
// across -replicas by consistent-hashing each (benchmark, core) cell,
// merges the partial results into bytes identical to a single daemon's
// answer, and proxies /v1/evaluate to the owning replica. Replicas
// (and single daemons) may add -store DIR for a persistent
// evaluation-unit store, so a restarted process comes up warm.
package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/fabric"
	"exocore/internal/obs"
	"exocore/internal/serve"
)

func main() {
	app := cli.New("exocored", "all")
	addr := app.Flags().String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks an ephemeral port)")
	portFile := app.Flags().String("portfile", "", "write the resolved listen address to this file once listening")
	concurrency := app.Flags().Int("concurrency", 0, "max concurrent evaluations (0 = the -workers bound)")
	queue := app.Flags().Int("queue", 0, "admission queue depth before 429 (0 = 4x concurrency)")
	timeout := app.Flags().Duration("timeout", 60*time.Second, "per-request evaluation deadline")
	drain := app.Flags().Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	warm := app.Flags().Bool("warm", false, "pre-warm scheduling contexts for -bench across every core in the background")
	flightSpans := app.Flags().Int("flight-spans", 4096, "flight-recorder span retention (ring capacity; 0 disables always-on tracing)")
	obsInterval := app.Flags().Duration("obs-interval", 5*time.Second, "runtime/metrics sampling interval for go.* instruments (0 disables)")
	pprofOn := app.Flags().Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	role := app.Flags().String("role", "single", "fabric role: single | replica | coordinator")
	replicas := app.Flags().String("replicas", "", "comma-separated replica base URLs (required with -role coordinator)")
	hedge := app.Flags().Duration("hedge", 10*time.Second, "coordinator: duplicate a straggling shard onto the next replica after this long (0 disables)")
	app.MustParse()
	defer app.Close()

	if err := cli.CheckEnum("-role", *role, "single", "replica", "coordinator"); err != nil {
		app.Fail(err)
	}
	if *role != "coordinator" && *replicas != "" {
		app.Fail(errors.New("-replicas is only meaningful with -role coordinator"))
	}
	if *role == "coordinator" {
		runCoordinator(app, *replicas, *addr, *portFile, *timeout, *drain, *hedge)
		return
	}

	// Always-on tracing: a bounded ring unless -trace asked for a full
	// dump tracer, which then serves both roles.
	if *flightSpans > 0 {
		app.SetTracer(obs.NewRingTracer("exocored", *flightSpans))
	}

	eng := app.Engine()
	log := app.Log()
	if *obsInterval > 0 {
		sampler := obs.StartRuntimeSampler(eng.Registry(), *obsInterval)
		defer sampler.Stop()
	}
	srv, err := serve.New(serve.Config{
		Engine:         eng,
		Concurrency:    *concurrency,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		Tracer:         app.Tracer(),
		Log:            log,
		EnablePprof:    *pprofOn,
		Role:           *role,
		Store:          app.Store(),
	})
	if err != nil {
		app.Fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		app.Fail(err)
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			app.Fail(err)
		}
	}
	log.Info("exocored listening", "addr", ln.Addr().String(),
		"maxdyn", eng.MaxDyn(), "workers", eng.Workers())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *warm {
		go warmup(ctx, app)
	}

	hs := &http.Server{Handler: srv.Handler()}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop()
		log.Info("draining", "budget", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := hs.Shutdown(dctx)
		if derr := srv.Shutdown(dctx); err == nil {
			err = derr
		}
		// Drained: seal the store's active segment before exiting.
		if cerr := app.Store().Close(); err == nil {
			err = cerr
		}
		shutdownErr <- err
	}()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		app.Fail(err)
	}
	if err := <-shutdownErr; err != nil {
		app.Fail(err)
	}
	log.Info("exocored stopped")
	app.Finish()
}

// runCoordinator serves the fabric coordinator: no engine, no store —
// just the ring, the shard dispatcher and the merge path over the
// replica set.
func runCoordinator(app *cli.App, replicaSpec, addr, portFile string, timeout, drain, hedge time.Duration) {
	if app.StoreDir != "" {
		app.Fail(errors.New("-store is for daemons that evaluate; the coordinator computes nothing (start the replicas with -store instead)"))
	}
	reps, err := fabric.ParseReplicas(replicaSpec)
	if err != nil {
		app.Fail(err)
	}
	log := app.Log()
	coord, err := fabric.New(fabric.Config{
		Replicas:       reps,
		RequestTimeout: timeout,
		HedgeAfter:     hedge,
		Reg:            obs.NewRegistry(),
		Log:            log,
	})
	if err != nil {
		app.Fail(err)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		app.Fail(err)
	}
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			app.Fail(err)
		}
	}
	log.Info("exocored coordinating", "addr", ln.Addr().String(), "replicas", len(reps))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: coord.Handler()}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		stop()
		log.Info("draining", "budget", drain)
		dctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		shutdownErr <- hs.Shutdown(dctx)
	}()
	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		app.Fail(err)
	}
	if err := <-shutdownErr; err != nil {
		app.Fail(err)
	}
	log.Info("exocored stopped")
	app.Finish()
}

// warmup builds scheduling contexts for the configured benchmarks across
// every general core, so the first requests hit a hot engine. Best
// effort: a canceled warmup is not an error.
func warmup(ctx context.Context, app *cli.App) {
	eng := app.Engine()
	wls := app.Workloads()
	type pair struct {
		wl   int
		core cores.Config
	}
	var pairs []pair
	for i := range wls {
		for _, c := range cores.Configs {
			pairs = append(pairs, pair{i, c})
		}
	}
	start := time.Now()
	err := eng.ForEachCtx(ctx, len(pairs), func(i int) error {
		_, err := eng.ContextCtx(ctx, wls[pairs[i].wl], pairs[i].core)
		return err
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		app.Log().Warn("warmup failed", "err", err)
		return
	}
	app.Log().Info("warmup done", "contexts", len(pairs), "wall", time.Since(start))
}
