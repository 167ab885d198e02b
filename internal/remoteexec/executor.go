package remoteexec

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"comtainer/internal/actioncache"
	"comtainer/internal/digest"
	"comtainer/internal/distrib"
	"comtainer/internal/fsim"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

// DefaultExecTimeout bounds one action's full farm round trip
// (overlay push, submit, completion wait, payload fetch) when the
// executor has no explicit Timeout. On expiry the action falls back
// to local execution; the rebuild never blocks on a wedged farm.
const DefaultExecTimeout = 2 * time.Minute

// statusWaitMillis is the long-poll window of one completion check.
const statusWaitMillis = 2000

// ExecStats counts where a rebuild's cache-miss actions ran.
type ExecStats struct {
	// Remote actions completed on farm workers.
	Remote int64
	// Local actions that fell back to local execution (farm declined,
	// failed, or was never prepared).
	Local int64
	// Errors counts farm round trips that ended in an error (a subset
	// of Local).
	Errors int64
}

func (s ExecStats) String() string {
	return fmt.Sprintf("%d remote, %d local (%d farm errors)", s.Remote, s.Local, s.Errors)
}

// Executor is the client side of the farm, wired into the rebuild
// scheduler through toolchain.Runner's Remote hook. Prepare ships the
// rebuild file system once as a content-addressed tree; Execute ships
// one ready action (with an overlay of its transitive dependencies'
// outputs) and returns the worker-observed result, or (nil, nil) to
// signal "run it locally". Safe for concurrent use.
type Executor struct {
	// Scheduler is the farm base URL (also serving /v2/ blob traffic).
	Scheduler string
	// Client moves the snapshot, overlays and payloads (in DefaultRepo).
	Client *distrib.Client
	// Platform every shipped task demands.
	Platform Platform
	// Timeout bounds each action's farm round trip
	// (DefaultExecTimeout when zero; negative disables).
	Timeout time.Duration

	mu       sync.Mutex
	baseTree digest.Digest // empty until Prepare succeeds

	remote, local, errs atomic.Int64
}

// NewExecutor returns an executor submitting to the farm at
// scheduler, demanding sys's ISA under reg's toolchain fingerprint.
func NewExecutor(scheduler string, sys *sysprofile.System, reg *toolchain.Registry) *Executor {
	return &Executor{
		Scheduler: scheduler,
		Client:    distrib.NewClient(scheduler),
		Platform:  Platform{ISA: sys.ISA, System: sys.Name, Toolchains: reg.Fingerprint()},
	}
}

func (e *Executor) httpClient() *http.Client {
	if e.Client != nil && e.Client.HTTP != nil {
		return e.Client.HTTP
	}
	return http.DefaultClient
}

func (e *Executor) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	d := e.Timeout
	if d == 0 {
		d = DefaultExecTimeout
	}
	if d < 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// Stats snapshots the executor's routing counters.
func (e *Executor) Stats() ExecStats {
	return ExecStats{Remote: e.remote.Load(), Local: e.local.Load(), Errors: e.errs.Load()}
}

// Prepare publishes fsys as the session's base tree under the default
// per-op deadline. Until it succeeds every Execute declines, so a
// failed Prepare degrades the whole rebuild to local execution.
func (e *Executor) Prepare(fsys *fsim.FS) error {
	//comtainer:allow ctxflow -- Prepare is called once per session from the ctx-free rebuild path; the per-op Timeout opCtx applies bounds this root
	ctx, cancel := e.opCtx(context.Background())
	defer cancel()
	td, err := PushTree(ctx, e.Client, DefaultRepo, fsys)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.baseTree = td
	e.mu.Unlock()
	return nil
}

// Execute offers one cache-missed command to the farm under the
// default per-op deadline. overlay is the outputs of the command's
// transitive dependencies, applied over the base tree on the worker.
// Any farm-side problem — no compatible worker, exhausted attempts,
// timeouts, transport failures — returns (nil, nil): the caller runs
// the command locally and the rebuild proceeds.
func (e *Executor) Execute(argv []string, cwd string, overlay []actioncache.Output) (*toolchain.RemoteResult, error) {
	e.mu.Lock()
	base := e.baseTree
	e.mu.Unlock()
	if base == "" {
		e.local.Add(1)
		return nil, nil
	}
	//comtainer:allow ctxflow -- Execute implements toolchain.RemoteExec, a ctx-free hook invoked from the rebuild DAG workers; the per-op Timeout opCtx applies bounds this root
	ctx, cancel := e.opCtx(context.Background())
	defer cancel()
	rr, err := e.tryFarm(ctx, argv, cwd, overlay, base)
	if err != nil || rr == nil {
		if err != nil {
			e.errs.Add(1)
		}
		e.local.Add(1)
		return nil, nil
	}
	e.remote.Add(1)
	return rr, nil
}

// tryFarm performs one full farm round trip. A nil, nil return means
// the farm declined cleanly (no compatible worker).
func (e *Executor) tryFarm(ctx context.Context, argv []string, cwd string, overlay []actioncache.Output, base digest.Digest) (*toolchain.RemoteResult, error) {
	spec := TaskSpec{
		Argv:     argv,
		Cwd:      cwd,
		Platform: e.Platform,
		Repo:     DefaultRepo,
		BaseTree: base,
	}
	if len(overlay) > 0 {
		od, err := PushPayload(ctx, e.Client, DefaultRepo, Payload{Outputs: overlay})
		if err != nil {
			return nil, err
		}
		spec.Overlay = od
	}
	var sub SubmitResponse
	if err := doJSON(ctx, e.httpClient(), http.MethodPost, e.Scheduler+APIPrefix+"/tasks", spec, &sub); err != nil {
		return nil, err
	}
	if sub.NoWorker {
		return nil, nil
	}
	statusURL := fmt.Sprintf("%s%s/tasks/%s?wait=%d", e.Scheduler, APIPrefix, sub.TaskID, statusWaitMillis)
	for {
		var st TaskStatus
		if err := doJSON(ctx, e.httpClient(), http.MethodGet, statusURL, nil, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case StateDone:
			p, err := FetchPayload(ctx, e.Client, DefaultRepo, st.Payload)
			if err != nil {
				return nil, err
			}
			if !p.Cacheable {
				return nil, fmt.Errorf("remoteexec: task %s returned a non-cacheable payload", st.ID)
			}
			return &toolchain.RemoteResult{Inputs: p.Inputs, Outputs: p.Outputs}, nil
		case StateFailed:
			return nil, fmt.Errorf("remoteexec: task %s failed on the farm: %s", st.ID, st.Error)
		}
		// Still queued/running: the long poll already waited; check
		// ctx before the next round so a cancelled rebuild stops.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}
