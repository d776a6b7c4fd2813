// Package bbrnash reproduces "Are we heading towards a BBR-dominant
// Internet?" (Mishra, Tiu & Leong, IMC 2022) as a reusable Go library.
//
// It bundles four layers, re-exported here as the stable public API:
//
//   - An analytical model (Predict, PredictInterval, PredictWare) of the
//     bandwidth shares of CUBIC and BBR flows competing at a drop-tail
//     bottleneck, including the Ware et al. (IMC 2019) baseline.
//   - A Nash Equilibrium predictor (PredictNash, PredictNashRegion) for the
//     congestion-control choice game: the mixed CUBIC/BBR distribution from
//     which no flow gains by switching. SymmetricGame plays that game on
//     measured payoffs, over one class of flows or several.
//   - A deterministic packet-level network simulator (NewNetwork) with
//     implementations of CUBIC, New Reno, BBRv1, BBRv2, Copa and PCC
//     Vivace, standing in for the paper's Linux testbed.
//   - The experiment harness (Figures, RunScenario, FindNE) that
//     regenerates every figure in the paper's evaluation at configurable
//     scale.
//
// # Quick start
//
//	s := bbrnash.Scenario{
//		Capacity: 100 * bbrnash.Mbps,
//		Buffer:   bbrnash.BufferBytes(100*bbrnash.Mbps, 40*time.Millisecond, 3),
//		RTT:      40 * time.Millisecond,
//		NumCubic: 5, NumBBR: 5,
//	}
//	p, err := bbrnash.Predict(s, bbrnash.Synchronized)
//	// p.PerBBR, p.PerCubic are the modeled per-flow bandwidths.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package bbrnash

import (
	"bbrnash/internal/adopt"
	"bbrnash/internal/cc"
	"bbrnash/internal/cc/bbr"
	"bbrnash/internal/cc/bbrv2"
	"bbrnash/internal/cc/copa"
	"bbrnash/internal/cc/cubic"
	"bbrnash/internal/cc/reno"
	"bbrnash/internal/cc/vivace"
	"bbrnash/internal/check"
	"bbrnash/internal/core"
	"bbrnash/internal/exp"
	"bbrnash/internal/game"
	"bbrnash/internal/netsim"
	"bbrnash/internal/runner"
	"bbrnash/internal/scenario"
	"bbrnash/internal/serve"
	"bbrnash/internal/telemetry"
	"bbrnash/internal/units"
)

// Quantity types and helpers (internal/units).
type (
	// Rate is a data rate in bits per second.
	Rate = units.Rate
	// Bytes is an amount of data in bytes.
	Bytes = units.Bytes
)

// Common rate and size units.
const (
	Kbps = units.Kbps
	Mbps = units.Mbps
	Gbps = units.Gbps
	KB   = units.KB
	MB   = units.MB
	// MSS is the segment size used throughout (1460 bytes).
	MSS = units.MSS
)

// BDP returns the bandwidth-delay product of a path.
var BDP = units.BDP

// BufferBytes sizes a buffer as a multiple of a path's BDP.
var BufferBytes = units.BufferBytes

// InBDP expresses a byte count in BDP multiples.
var InBDP = units.InBDP

// Analytical model (internal/core — the paper's §2 and §4).
type (
	// Scenario describes a modeled bottleneck shared by CUBIC and BBR
	// flows with one base RTT.
	Scenario = core.Scenario
	// Prediction is the model's output for one synchronization mode.
	Prediction = core.Prediction
	// Interval brackets predictions between both synchronization bounds.
	Interval = core.Interval
	// SyncMode selects the CUBIC synchronization extreme (§2.4).
	SyncMode = core.SyncMode
	// Regime classifies model validity for a scenario.
	Regime = core.Regime
	// WareScenario parameterizes the Ware et al. baseline model.
	WareScenario = core.WareScenario
	// WarePrediction is the baseline model's output.
	WarePrediction = core.WarePrediction
	// NashScenario describes the congestion-control choice game.
	NashScenario = core.NashScenario
	// NashPoint is a predicted equilibrium distribution.
	NashPoint = core.NashPoint
	// NashRegion is the equilibrium band between the two bounds.
	NashRegion = core.NashRegion
)

// Synchronization modes and validity regimes.
const (
	Synchronized    = core.Synchronized
	Desynchronized  = core.Desynchronized
	RegimeValid     = core.RegimeValid
	RegimeShallow   = core.RegimeShallow
	RegimeUltraDeep = core.RegimeUltraDeep
)

// Model entry points.
var (
	// Predict evaluates the throughput model for one sync mode.
	Predict = core.Predict
	// PredictExact evaluates the variant without the b_b+b_c≈B
	// approximation (used by the ablation benchmarks).
	PredictExact = core.PredictExact
	// PredictInterval evaluates both bounds.
	PredictInterval = core.PredictInterval
	// PredictWare evaluates the Ware et al. baseline.
	PredictWare = core.PredictWare
	// PredictNash locates the model's Nash Equilibrium.
	PredictNash = core.PredictNash
	// PredictNashRegion evaluates the equilibrium band.
	PredictNashRegion = core.PredictNashRegion
)

// Simulator (internal/netsim) and congestion control (internal/cc).
type (
	// Network is one packet-level simulation instance.
	Network = netsim.Network
	// NetworkConfig describes the bottleneck — or, via its Links field,
	// a multi-link topology that flows traverse over per-flow paths.
	NetworkConfig = netsim.Config
	// FlowConfig describes one sender.
	FlowConfig = netsim.FlowConfig
	// Flow is a sender/receiver pair attached to a Network.
	Flow = netsim.Flow
	// FlowStats is a per-flow measurement snapshot.
	FlowStats = netsim.FlowStats
	// LinkStats is a bottleneck measurement snapshot.
	LinkStats = netsim.LinkStats
	// Algorithm is the congestion-control interface.
	Algorithm = cc.Algorithm
	// AlgorithmConstructor builds an Algorithm for one flow.
	AlgorithmConstructor = cc.Constructor
	// AlgorithmParams carries per-flow constants.
	AlgorithmParams = cc.Params
)

// NewNetwork creates a simulation instance.
var NewNetwork = netsim.New

// Sampler records periodic per-flow time series (throughput, in-flight,
// buffer share); attach with NewSampler before running the simulation.
type Sampler = netsim.Sampler

// FlowSample is one sampler observation.
type FlowSample = netsim.Sample

// NewSampler attaches a Sampler to a flow.
var NewSampler = netsim.NewSampler

// LinkSampler records periodic bottleneck time series (queue depth,
// delivered throughput, effective rate); attach with NewLinkSampler before
// running the simulation.
type LinkSampler = netsim.LinkSampler

// LinkSample is one link-sampler observation.
type LinkSample = netsim.LinkSample

// NewLinkSampler attaches a LinkSampler to a network.
var NewLinkSampler = netsim.NewLinkSampler

// Congestion-control constructors, each usable as FlowConfig.Algorithm.
// Scenario specs and experiment configs name algorithms by registry name
// instead (see Algorithms), so every run has a canonical key.
var (
	CUBIC   AlgorithmConstructor = cubic.New
	NewReno AlgorithmConstructor = reno.New
	BBR     AlgorithmConstructor = bbr.New
	BBRv2   AlgorithmConstructor = bbrv2.New
	Copa    AlgorithmConstructor = copa.New
	Vivace  AlgorithmConstructor = vivace.New
)

// AlgorithmByName resolves a constructor from its name ("cubic", "reno",
// "bbr", "bbrv2", "copa", "vivace").
var AlgorithmByName = cc.AlgorithmByName

// Algorithms lists the registered algorithm names in sorted order.
var Algorithms = cc.Algorithms

// Declarative scenarios (internal/scenario). A ScenarioSpec is the
// canonical description of one bottleneck experiment — the same object
// the CLIs parse, the simulator builds from, and the cache and auditor
// key results by (Spec.Key).
type (
	// ScenarioSpec is one complete declarative scenario.
	ScenarioSpec = scenario.Spec
	// ScenarioGroup is one ordered group of identical flows in a spec.
	ScenarioGroup = scenario.Group
	// ScenarioFaults is a spec's deterministic fault-injection block:
	// stochastic forward and ACK-path loss, periodic capacity flaps and
	// burst-loss episodes, all derived from the spec's seed so a faulted
	// run is exactly as reproducible as a clean one (and participates in
	// the spec's canonical key).
	ScenarioFaults = scenario.Faults
	// ScenarioLink is one named link in a multi-bottleneck topology:
	// capacity, buffer, per-link faults and an optional reverse twin that
	// serializes ACKs. A spec with no Links is the one-link special case.
	ScenarioLink = scenario.Link
	// ScenarioResult carries a spec run's per-group and link statistics.
	ScenarioResult = exp.SpecResult
	// ScenarioEnv is what RunScenario runs a spec through: an optional
	// ResultCache, ResumeJournal, InvariantAuditor and TraceRecorder. The
	// zero ScenarioEnv runs the spec bare.
	ScenarioEnv = exp.Env
)

var (
	// LoadScenario reads and validates a scenario spec from a JSON file.
	LoadScenario = scenario.Load
	// MixScenario builds the paper's canonical two-class scenario.
	MixScenario = scenario.Mix
	// RunScenario executes one scenario spec through a ScenarioEnv, keyed
	// by the spec's canonical key: cache, then journal, then a fresh run
	// (traced, when the env has a TraceRecorder), with every result audited.
	// hit reports a cache or journal replay; the context cancels the run at
	// simulated-second boundaries; a failure or a panic comes back as a
	// *UnitError naming the key.
	RunScenario = exp.Run
)

// ScenarioKeyVersion is the canonical-key format generation used by
// Spec.Key, the result cache and the invariant auditor.
const ScenarioKeyVersion = scenario.KeyVersion

// Experiments (internal/exp) and game theory (internal/game).
type (
	// ExperimentScale selects fidelity (FullScale reproduces the paper's
	// protocol).
	ExperimentScale = exp.Scale
	// SweepPoint is one point of ExperimentScale.Sweep, averaged over the
	// scale's trials: per-group per-flow and aggregate rates in spec group
	// order, plus the link's utilization and queueing delay.
	SweepPoint = exp.SweepPoint
	// NESearchConfig describes an empirical equilibrium search; X is a
	// registry algorithm name ("" means "bbr"), and its Utility field
	// selects a §4.3 utility (nil means throughput only).
	NESearchConfig = exp.NESearchConfig
	// NESearchResult is its outcome.
	NESearchResult = exp.NESearchResult
	// GroupNEConfig describes the multi-RTT equilibrium search (§4.5).
	GroupNEConfig = exp.GroupNEConfig
	// GroupNEResult is its outcome.
	GroupNEResult = exp.GroupNEResult
	// UtilityFunc scores a flow's throughput/delay outcome (§4.3); set
	// one as NESearchConfig.Utility.
	UtilityFunc = exp.UtilityFunc
	// Figure is one reproducible paper artifact.
	Figure = exp.Figure
	// FigureResult is a generated figure.
	FigureResult = exp.FigureResult
	// SymmetricGame is the congestion-control choice game over classes
	// of interchangeable flows, a profile being the per-class strategy
	// counts: one class for §4.1, one per RTT group for §4.5, one per
	// RTT class for the adoption dynamics' fixed-point check.
	SymmetricGame = game.Symmetric
)

// Experiment scales.
var (
	FullScale  = exp.Full
	QuickScale = exp.Quick
	SmokeScale = exp.Smoke
)

// Experiment entry points.
var (
	// FindNE searches for empirical Nash Equilibria, under the
	// throughput-only game or the §4.3 utility set as
	// NESearchConfig.Utility.
	FindNE = exp.FindNE
	// LinearUtility builds α·throughput − γ·delay utilities.
	LinearUtility = exp.LinearUtility
	// ThroughputUtility is the paper's default utility.
	ThroughputUtility exp.UtilityFunc = exp.ThroughputUtility
	// FindGroupNE searches for multi-RTT equilibria.
	FindGroupNE = exp.FindGroupNE
	// Figures returns the registry of paper figures.
	Figures = exp.Figures
	// FigureByID finds one figure.
	FigureByID = exp.FigureByID
)

// Parallel runner and result cache (internal/runner). Attach a pool and a
// cache to an ExperimentScale (or an NE search config) to fan independent
// simulations across cores and memoize their results; neither changes any
// result — see DESIGN.md, "Parallel execution & determinism".
type (
	// WorkerPool bounds how many simulations run concurrently.
	WorkerPool = runner.Pool
	// ResultCache memoizes simulation results by canonical scenario key.
	ResultCache = runner.Cache
)

var (
	// NewWorkerPool creates a pool of the given size (<= 0 means
	// GOMAXPROCS).
	NewWorkerPool = runner.NewPool
	// NewResultCache creates an empty in-memory cache.
	NewResultCache = runner.NewCache
	// OpenResultCache loads (or creates) an on-disk JSON cache.
	OpenResultCache = runner.OpenCache
)

// Fault tolerance and invariant auditing (internal/runner,
// internal/check). Sweeps and NE searches honour an optional
// context.Context (ExperimentScale.Ctx, NESearchConfig.Ctx): once it is
// cancelled no further simulations are dispatched, in-flight units drain,
// and a failing or panicking unit is reported as a *UnitError naming the
// scenario's canonical key. An InvariantAuditor attached to a scale or
// search config validates every simulation result as it is produced.
type (
	// UnitError identifies the failing unit of a sweep: submission index,
	// canonical scenario key, and the error or recovered panic + stack.
	UnitError = runner.UnitError
	// StallError reports a unit cancelled by the pool's watchdog: it made
	// no progress for a full window. Stalls are transient — with retries
	// configured the unit is re-run from the same seed.
	StallError = runner.StallError
	// TransientError marks an error as retryable by the pool.
	TransientError = runner.TransientError
	// ResumeJournal is the crash-safe write-ahead log of completed
	// simulation units: each result is appended and fsynced as it
	// finishes, so a killed sweep resumes from its completed units.
	ResumeJournal = runner.Journal
	// InvariantAuditor collects physical-invariant violations; nil
	// disables auditing.
	InvariantAuditor = check.Auditor
	// InvariantViolation is one failed invariant, keyed by scenario.
	InvariantViolation = check.Violation
	// InvariantLimits carries the bounds results are audited against.
	InvariantLimits = check.Limits
)

var (
	// OpenResumeJournal loads (or creates) an on-disk resume journal;
	// attach it to an ExperimentScale's (or search config's) Journal field.
	OpenResumeJournal = runner.OpenJournal
	// MarkTransient wraps an error so the pool's retry policy re-runs the
	// unit; Transient reports whether an error is retryable.
	MarkTransient = runner.MarkTransient
	// Transient reports whether an error would be retried by the pool.
	Transient = runner.Transient
	// UnitProgress heartbeats the pool's stall watchdog from inside a
	// long-running unit (no-op outside a watchdogged unit).
	UnitProgress = runner.Progress
	// NewInvariantAuditor creates an empty auditor; attach it to an
	// ExperimentScale's (or search config's) Audit field.
	NewInvariantAuditor = check.New
	// AuditFlows audits one simulation's per-flow and link statistics
	// against a scenario's physical bounds.
	AuditFlows = check.Flows
	// AuditLink audits one link's statistics against its own capacity
	// and buffer bounds — the per-link half of a topology audit.
	AuditLink = check.Link
)

// Run telemetry (internal/telemetry). A TraceRecorder attached to an
// ExperimentScale (or NE search config, or a ScenarioEnv passed to
// RunScenario) captures every fresh simulation's per-flow and link time
// series plus discrete events as deterministic JSONL + CSV trace files
// keyed by canonical scenario key; a RunReport summarizes a sweep's
// execution (worker occupancy, retries, stalls, cache effectiveness).
// Tracing never changes a result or a cache key.
type (
	// TraceRecorder writes run traces into a directory; nil disables
	// tracing everywhere one is accepted.
	TraceRecorder = telemetry.Recorder
	// TraceCapture is one simulation's in-progress trace.
	TraceCapture = telemetry.Capture
	// TraceEvent is one discrete trace event (drop, cc state change,
	// capacity change).
	TraceEvent = telemetry.Event
	// RunReport is the machine-readable summary of one command's execution.
	RunReport = telemetry.Report
)

var (
	// NewTraceRecorder creates a recorder writing into dir.
	NewTraceRecorder = telemetry.NewRecorder
	// TraceID derives the trace file identifier for a canonical scenario
	// key; TracePaths maps a directory and key to the trace file paths.
	TraceID    = telemetry.TraceID
	TracePaths = telemetry.TracePaths
	// CollectReport assembles a RunReport from a run's (nil-safe)
	// components.
	CollectReport = telemetry.Collect
)

// The sweep service (internal/serve, cmd/bbrserve). A SweepService wraps
// the cache+journal substrate in an HTTP API: instant answers on cache
// hit, at most one execution per canonical scenario key no matter how many
// clients submit it, a bounded queue that sheds overload with 429, one
// panic shield around every flight on the caller's worker pool (a failing
// or panicking flight fails only itself), and byte-identical crash
// recovery off the fsynced journal — see DESIGN.md §16. The cache and
// journal stores themselves take exclusive advisory file locks on open, so
// two processes sharing a store fail loudly (ErrStoreLocked) instead of
// corrupting it.
type (
	// SweepService is the long-running sweep server; mount
	// (*SweepService).Handler on an http.Server and Drain on shutdown.
	SweepService = serve.Server
	// SweepServiceConfig assembles a SweepService; only Cache is required.
	SweepServiceConfig = serve.Config
	// SweepServiceStats is the machine-readable /stats snapshot.
	SweepServiceStats = serve.Stats
)

var (
	// NewSweepService builds a service and starts one worker per pool
	// worker.
	NewSweepService = serve.New
	// ErrStoreLocked reports that another live process holds the advisory
	// lock on a cache or journal path.
	ErrStoreLocked = runner.ErrStoreLocked
)

// Adoption dynamics (internal/adopt, cmd/adopt). An AdoptionConfig
// describes a population of congestion-control deployments — 10⁴–10⁶
// agents in RTT classes, each running a registry algorithm — evolving
// under replicator dynamics or noisy best response, with payoffs
// evaluated through the cached experiment harness (fluid backend by
// default). Trajectories are deterministic: byte-identical at any worker
// count and across crash/resume cycles, with the final state checked as
// a per-class eps-equilibrium — see DESIGN.md §17.
type (
	// AdoptionConfig describes one adoption-dynamics run.
	AdoptionConfig = adopt.Config
	// AdoptionClass is one RTT class of the population.
	AdoptionClass = adopt.Class
	// AdoptionResult is a completed run: trajectory, final census,
	// fixed-point verdict, simulation accounting.
	AdoptionResult = adopt.Result
	// AdoptionRecord is one JSONL trajectory record.
	AdoptionRecord = adopt.Record
	// AdoptionPopulation is the per-class algorithm census.
	AdoptionPopulation = adopt.Population
)

var (
	// RunAdoption executes the adoption dynamics.
	RunAdoption = adopt.Run
	// WriteAdoptionJSONL writes a trajectory as deterministic JSONL.
	WriteAdoptionJSONL = adopt.WriteJSONL
)
