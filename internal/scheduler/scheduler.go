// Package scheduler implements the four resource-provisioning schemes the
// paper evaluates, as placement policies over a common interface:
//
//   - CORP: packs complementary arrivals into entities (Section III-B),
//     places them on the most-matched VM (Eq. 22) out of the unlocked
//     predicted-unused pools, falling back to unallocated headroom.
//   - RCCR: no packing; places each job on a random VM whose
//     ETS-predicted unused resources satisfy it ("we randomly chose a VM
//     that can satisfy the resource demands of a job ... without
//     considering job packing").
//   - CloudScale: no packing; random VM whose padded prediction fits.
//   - DRA: demand-based only — never uses allocated-but-unused resources;
//     random share-weighted VM with unallocated headroom.
//
// The scheduler owns one predictor per VM and refreshes all forecasts once
// per window; the simulator drives Observe/Refresh/Place and owns the
// physical truth.
package scheduler

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/job"
	"repro/internal/packing"
	"repro/internal/predict"
	"repro/internal/resource"
)

// Scheme selects a provisioning scheme.
type Scheme int

// The four evaluated schemes.
const (
	CORP Scheme = iota
	RCCR
	CloudScale
	DRA
	// Oracle places with perfect knowledge of future unused resources —
	// the reproduction's upper bound, not a scheme from the paper.
	Oracle
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case CORP:
		return "CORP"
	case RCCR:
		return "RCCR"
	case CloudScale:
		return "CloudScale"
	case DRA:
		return "DRA"
	case Oracle:
		return "Oracle"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Schemes returns all schemes in the paper's comparison order.
func Schemes() []Scheme { return []Scheme{CORP, RCCR, CloudScale, DRA} }

// Config parameterizes scheduler construction.
type Config struct {
	Scheme Scheme

	// Corp, RCCR, CloudScale and DRA configure the per-scheme
	// predictors; zero values take each predictor's defaults.
	Corp       predict.CorpConfig
	RCCR       predict.RCCRConfig
	CloudScale predict.CloudScaleConfig
	DRA        predict.DRAConfig

	// Seed drives the baselines' random VM choice and predictor
	// initialization.
	Seed int64

	// DisablePacking turns CORP's complementary packing off (ablation).
	DisablePacking bool

	// CorpAllocMargin sizes CORP's per-job allocation: the corrected
	// predicted need is the job's mean demand times this margin
	// (Section III-A: CORP "dynamically allocates the corrected amount
	// of resource to jobs" rather than the declared peak). Zero defaults
	// to 1.15.
	CorpAllocMargin float64

	// CloudScalePad sizes CloudScale's allocation: declared peak times
	// this factor (its adaptive padding over-provisions to absorb
	// bursts). Zero defaults to 1.35.
	CloudScalePad float64

	// DRABulk sizes DRA's allocation: declared peak times this factor
	// (bulk-capacity redistribution is coarser than per-job rightsizing).
	// Zero defaults to 1.5.
	DRABulk float64

	// AllocTightness scales every allocation the scheme makes. 1.0 is
	// the scheme's nominal sizing; values below 1 trade SLO safety for
	// utilization — the knob the Fig. 8/12 sweep turns ("We varied the
	// SLO violation rate ... thereby varying the percentage of jobs that
	// have SLO violation"). Zero defaults to 1.0.
	AllocTightness float64

	// CorpPlacement selects CORP's VM-selection strategy: "most-matched"
	// (the paper's Eq. 22, the default), "first-fit", "worst-fit" or
	// "random" — the extension experiments compare them.
	CorpPlacement string

	// CorpPackK sets the maximum entity size for CORP's packing; zero
	// defaults to 2 (the paper packs pairs). Values above 2 exercise the
	// k-way extension.
	CorpPackK int

	// Workers switches CORP's per-kind training goroutines on: above 1,
	// the shared brain's three resource kinds train concurrently, one
	// goroutine each, so widths above 3 buy nothing; values <= 1 train
	// them one after another. Every other pass is serial, and the other
	// schemes ignore it. Results are identical at any count; Workers
	// affects wall time only.
	Workers int
}

// VMView is the simulator's per-VM state snapshot handed to Place: what
// the scheduler may allocate from, and what it has already committed.
type VMView struct {
	// FreshAvailable is capacity − reservations − fresh allocations in
	// force: real, guaranteed headroom.
	FreshAvailable resource.Vector
	// OppInUse is the sum of opportunistic allocations currently riding
	// on this VM's predicted-unused pool.
	OppInUse resource.Vector
	// Down marks a failed VM: it drops out of every scheme's candidate
	// set until recovery re-offers it with Down cleared (graceful
	// degradation under fault injection).
	Down bool
}

// Pools is one VM's short-job grant ledger (Section III): Fresh sums the
// grants carved from unallocated guaranteed headroom, Opp those riding on
// the predicted-unused pool. The simulator and the live controller each
// keep one per VM and change it only through these methods. guaranteed is
// what the VM's capacity leaves short jobs once its reservations are
// subtracted; fresh grants may only fill it.
type Pools struct {
	Fresh resource.Vector
	Opp   resource.Vector
}

// Charge books a new grant of alloc to the opportunistic or fresh pool.
func (p *Pools) Charge(alloc resource.Vector, opp bool) {
	pool := &p.Fresh
	if opp {
		pool = &p.Opp
	}
	*pool = pool.Add(alloc)
}

// Return gives a finished or revoked grant back to its pool, which never
// drops below zero.
func (p *Pools) Return(alloc resource.Vector, opp bool) {
	pool := &p.Fresh
	if opp {
		pool = &p.Opp
	}
	*pool = pool.SubClamp(alloc)
}

// Headroom is the guaranteed capacity no fresh grant holds yet.
func (p *Pools) Headroom(guaranteed resource.Vector) resource.Vector {
	return guaranteed.SubClamp(p.Fresh)
}

// Resize moves a live grant from alloc to want, the scheme's corrected
// amount, and returns the allocation it lands on. An opportunistic grant
// swaps freely (the risk lands at execute time, when the pool runs short);
// a fresh grant may shrink freely but grows only into Headroom(guaranteed).
func (p *Pools) Resize(alloc, want resource.Vector, opp bool, guaranteed resource.Vector) resource.Vector {
	if !opp {
		grow := want.Sub(alloc).ClampNonNegative().Min(p.Headroom(guaranteed))
		want = alloc.Min(want).Add(grow)
	}
	p.Return(alloc, opp)
	p.Charge(want, opp)
	return want
}

// View is the VM as Place sees it: a down VM offers nothing.
func (p *Pools) View(guaranteed resource.Vector, down bool) VMView {
	if down {
		return VMView{Down: true}
	}
	return VMView{FreshAvailable: p.Headroom(guaranteed), OppInUse: p.Opp}
}

// Placement is one placement decision.
type Placement struct {
	Jobs []*job.Job
	// Allocs[i] is the amount allocated to Jobs[i] — each scheme's own
	// sizing policy; the utilization metric (Eq. 1) is demand over these.
	Allocs []resource.Vector
	VM     int
	// Opportunistic marks allocations carved from predicted-unused
	// resources (preempted from residents) rather than fresh headroom.
	Opportunistic bool
}

// Scheduler is the common interface the simulator drives.
type Scheduler interface {
	// Name identifies the scheme.
	Name() string
	// Window is L, the prediction refresh period in slots.
	Window() int
	// Observe feeds VM vm's actual unused vector for the current slot.
	Observe(vm int, actualUnused resource.Vector)
	// Refresh recomputes all VM forecasts; the simulator calls it once
	// per window.
	Refresh()
	// Place decides placements for the given pending jobs. Views are
	// indexed by VM. Jobs not covered by any returned placement stay
	// queued. The returned slice (and the Jobs/Allocs slices inside each
	// Placement) may be reused backing storage, valid only until the next
	// Place call; callers that retain placements must copy them out.
	Place(jobs []*job.Job, views []VMView) []Placement
	// DrainOutcomes returns matured prediction errors across all VMs
	// (for the Fig. 6 harness). The returned slice may be a reused
	// buffer, valid only until the next DrainOutcomes call; callers that
	// retain samples must copy them out.
	DrainOutcomes() []predict.ErrorSample
	// ObserveAll feeds one slot's observations for the whole fleet at once;
	// the simulator's telemetry phase calls nothing else.
	BatchObserver
}

// New builds the scheduler for the scheme over the given cluster.
func New(cfg Config, cl *cluster.Cluster) (Scheduler, error) {
	caps := make([]resource.Vector, len(cl.VMs))
	for i, vm := range cl.VMs {
		caps[i] = vm.Capacity
	}
	tight := cfg.AllocTightness
	if tight <= 0 {
		tight = 1.0
	}
	// All VMs start dirty so the first Refresh predicts everywhere.
	dirty := make([]bool, len(caps))
	for i := range dirty {
		dirty[i] = true
	}
	base := base{
		caps:    caps,
		maxCap:  cl.MaxVMCapacity(),
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0xc0ffee)),
		latest:  make([]predict.Prediction, len(caps)),
		tight:   tight,
		workers: cfg.Workers,
		dirty:   dirty,
	}
	// Each scheme's predictors come from its fleet constructor, one slab
	// per kind of predictor state; preds points into the fleet.
	switch cfg.Scheme {
	case CORP:
		brain, err := predict.NewCorpBrain(cfg.Corp)
		if err != nil {
			return nil, err
		}
		fleet := predict.NewCorpFleet(brain, caps, cfg.Seed)
		base.preds = predictorsOf(fleet)
		base.window = windowOf(cfg.Corp.Window)
		s, err := newCorpScheduler(base, "CORP", cfg)
		if err != nil {
			return nil, err
		}
		s.brain, s.corpFleet = brain, fleet
		return s, nil
	case RCCR:
		base.preds = predictorsOf(predict.NewRCCRFleet(cfg.RCCR, caps))
		base.window = windowOf(cfg.RCCR.Window)
		return &randomScheduler{base: base, name: "RCCR", allocFactor: 1.0}, nil
	case CloudScale:
		base.preds = predictorsOf(predict.NewCloudScaleFleet(cfg.CloudScale, caps))
		base.window = windowOf(cfg.CloudScale.Window)
		pad := cfg.CloudScalePad
		if pad <= 0 {
			pad = 1.35
		}
		return &randomScheduler{base: base, name: "CloudScale", allocFactor: pad}, nil
	case DRA:
		base.preds = predictorsOf(predict.NewDRAFleet(cfg.DRA, caps))
		base.window = windowOf(cfg.DRA.Window)
		bulk := cfg.DRABulk
		if bulk <= 0 {
			bulk = 1.5
		}
		return newDRAScheduler(base, bulk), nil
	case Oracle:
		base.window = windowOf(0)
		base.preds = predictorsOf(predict.NewOracleFleet(base.window, caps))
		// The oracle reuses CORP's packing and placement machinery; only
		// the predictions differ.
		return newCorpScheduler(base, "Oracle", cfg)
	default:
		return nil, fmt.Errorf("scheduler: unknown scheme %v", cfg.Scheme)
	}
}

// newCorpScheduler builds CORP's packing and placement machinery over b,
// with no brain: the CORP case adds its brain and fleet.
func newCorpScheduler(b base, name string, cfg Config) (*corpScheduler, error) {
	margin := cfg.CorpAllocMargin
	if margin <= 0 {
		margin = 1.15
	}
	strategy, err := placementStrategy(cfg.CorpPlacement, b.rng)
	if err != nil {
		return nil, err
	}
	packK := cfg.CorpPackK
	if packK <= 0 {
		packK = 2
	}
	if cfg.DisablePacking {
		packK = 1 // singletons
	}
	return &corpScheduler{base: b, name: name, margin: margin, strategy: strategy, packK: packK}, nil
}

// predictorsOf lists a fleet's members as the per-VM Predictors, each
// pointing into the fleet's slab.
func predictorsOf[P any, PP interface {
	*P
	predict.Predictor
}](fleet []P) []predict.Predictor {
	preds := make([]predict.Predictor, len(fleet))
	for i := range fleet {
		preds[i] = PP(&fleet[i])
	}
	return preds
}

// placementStrategy resolves a CorpPlacement name.
func placementStrategy(name string, rng *rand.Rand) (packing.Strategy, error) {
	switch name {
	case "", "most-matched":
		return packing.MostMatched{}, nil
	case "first-fit":
		return packing.FirstFit{}, nil
	case "worst-fit":
		return packing.WorstFit{}, nil
	case "random":
		return packing.RandomFit{Rng: rng}, nil
	default:
		return nil, fmt.Errorf("scheduler: unknown placement strategy %q", name)
	}
}

// storageGranularity inflates every scheme's storage allocation: disk is
// provisioned in coarse volume sizes, so allocated storage exceeds the
// requested amount more than CPU/MEM do. This reproduces the paper's
// Fig. 11 observation that "the utilizations of CPU and MEM are higher
// than storage ... storage is not the bottleneck resource and has more
// wastage in allocation".
const storageGranularity = 1.3

// padStorage applies the volume-granularity inflation to an allocation.
func padStorage(v resource.Vector) resource.Vector {
	v[resource.Storage] *= storageGranularity
	return v
}

// windowOf applies the predictors' shared default window.
func windowOf(w int) int {
	if w <= 0 {
		return 6
	}
	return w
}

// FutureSink is implemented by predictors that accept the true future
// series (the oracle); the simulator feeds it when available.
type FutureSink interface {
	SetFuture(series []resource.Vector)
}

// SetFutures hands each VM's actual unused series to predictors that can
// consume it. It is a no-op for real schemes.
func SetFutures(s Scheduler, series [][]resource.Vector) {
	b, ok := s.(interface{ predictors() []predict.Predictor })
	if !ok {
		return
	}
	for i, p := range b.predictors() {
		if sink, ok := p.(FutureSink); ok && i < len(series) {
			sink.SetFuture(series[i])
		}
	}
}

// base carries the machinery every scheme shares.
type base struct {
	caps   []resource.Vector
	maxCap resource.Vector
	window int
	rng    *rand.Rand
	preds  []predict.Predictor
	latest []predict.Prediction
	tight  float64

	// Prediction engine state (see engine.go). workers is the CORP
	// training fan-out's width. dirty[i] is set when VM i has seen a new
	// observation since its last Predict, so Refresh can skip VMs with
	// nothing new (down VMs keep their last forecast). drainBuf is the
	// reused DrainOutcomes output.
	workers  int
	dirty    []bool
	drainBuf []predict.ErrorSample

	// Reused per-Place pool copies (oppPool/freshPool) so placement does
	// not reallocate them every slot.
	oppPool   []resource.Vector
	freshPool []resource.Vector
}

func (b *base) Window() int { return b.window }

// predictors exposes the per-VM predictors for SetFutures.
func (b *base) predictors() []predict.Predictor { return b.preds }

func (b *base) Observe(vm int, actualUnused resource.Vector) {
	b.dirty[vm] = true
	b.preds[vm].Observe(actualUnused)
}

// Refresh recomputes the per-VM forecasts in VM order. VMs with no
// observation since their last Predict (down VMs under fault injection)
// are skipped and keep their previous forecast.
func (b *base) Refresh() {
	for i, p := range b.preds {
		if b.dirty[i] {
			b.dirty[i] = false
			b.latest[i] = p.Predict()
		}
	}
}

// DrainOutcomes gathers matured prediction errors across all VMs into one
// reused buffer. The returned slice is valid until the next DrainOutcomes
// call; callers that retain samples must copy them out.
func (b *base) DrainOutcomes() []predict.ErrorSample {
	out := b.drainBuf[:0]
	for _, p := range b.preds {
		out = p.AppendOutcomes(out)
	}
	b.drainBuf = out
	return out
}

// pools copies the per-VM opportunistic and fresh headroom into reused
// buffers so one Place call can consume them consistently across
// entities without reallocating every slot.
func (b *base) pools(views []VMView) (opp, fresh []resource.Vector) {
	if cap(b.oppPool) < len(views) {
		b.oppPool = make([]resource.Vector, len(views))
		b.freshPool = make([]resource.Vector, len(views))
	}
	opp = b.oppPool[:len(views)]
	fresh = b.freshPool[:len(views)]
	for i, v := range views {
		opp[i] = b.oppAvailable(i, v)
		fresh[i] = v.FreshAvailable
	}
	return opp, fresh
}

// oppAvailable returns what the prediction still offers on VM i after the
// opportunistic allocations already in force.
func (b *base) oppAvailable(i int, v VMView) resource.Vector {
	return b.latest[i].Unused.Sub(v.OppInUse).ClampNonNegative()
}

// Adjuster is implemented by schemes that re-size running jobs'
// allocations every window (CORP: "dynamically allocates the corrected
// amount of resource to jobs ... adapt[ing] well to the requirement of
// time-varying user demand"). The simulator consults it at each refresh.
type Adjuster interface {
	// AdjustAlloc returns the new allocation for a running job given its
	// current observed demand; ok is false when the scheme leaves the
	// allocation unchanged.
	AdjustAlloc(spec *job.Job, currentDemand resource.Vector) (alloc resource.Vector, ok bool)
}

// corpScheduler is the paper's system (also reused, with oracle
// predictions, as the upper-bound scheme).
type corpScheduler struct {
	base
	name     string
	margin   float64
	strategy packing.Strategy
	// packK is the largest entity PackK forms; 1 (DisablePacking) places
	// every job alone.
	packK int
	// brain is the shared online DNN (nil for the oracle variant, which
	// reuses this scheduler without learned predictions).
	brain *predict.CorpBrain

	// corpFleet is the per-VM predictors' slab, which base.preds points
	// into, for the split observe pass (engine.go); nil for the oracle
	// variant, which routes ObserveAll through the per-VM base path.
	corpFleet []predict.CorpPredictor

	// Reused candidate buffers: the eligible-VM sets are fixed for the
	// duration of one Place call (Down/Unlocked only change between
	// slots), so they are built once per call and only the chosen VM's
	// Available entry is updated after each placement. oppIdx/freshIdx
	// map VM index → candidate position (-1 when ineligible).
	oppCands   []packing.Candidate
	freshCands []packing.Candidate
	oppIdx     []int
	freshIdx   []int

	// Reused per-Place scratch: the packer's entities, one entity's
	// allocations, and the returned placements.
	packer   packing.Packer
	allocBuf []resource.Vector
	arena    placementArena
}

// TrainErrors reports how many online DNN training samples the shared
// brain rejected; zero for the oracle variant. The simulator surfaces this
// through Result so a silently broken training feed is visible.
func (s *corpScheduler) TrainErrors() int {
	if s.brain == nil {
		return 0
	}
	return s.brain.TrainErrors()
}

// AdjustAlloc implements Adjuster: the corrected amount tracks the job's
// observed demand with the margin, floored at the mean-based initial
// sizing and capped at the declared peak.
func (s *corpScheduler) AdjustAlloc(spec *job.Job, currentDemand resource.Vector) (resource.Vector, bool) {
	tracked := currentDemand.Scale(s.margin)
	floor := spec.MeanDemand().Scale(0.8 * s.margin)
	return padStorage(tracked.Max(floor).Min(spec.PeakDemand())).Scale(s.tight), true
}

// alloc sizes CORP's allocation for one job: the corrected predicted need
// (mean demand times the margin), never above the declared peak, scaled by
// the tightness knob.
func (s *corpScheduler) alloc(j *job.Job) resource.Vector {
	return padStorage(j.MeanDemand().Scale(s.margin).Min(j.PeakDemand())).Scale(s.tight)
}

func (s *corpScheduler) Name() string { return s.name }

// Place implements the Section III-B algorithm: pack, then for each entity
// choose the most-matched VM from the unlocked predicted-unused pools;
// fall back to unallocated headroom with the same volume rule.
func (s *corpScheduler) Place(jobs []*job.Job, views []VMView) []Placement {
	entities := s.packer.PackK(jobs, s.maxCap, s.packK)
	// Local copies of the evolving pools so one Place call stays
	// consistent across multiple entities.
	opp, fresh := s.pools(views)
	// Candidate sets are fixed within one Place call; build them once and
	// patch only the chosen VM's Available after each placement instead
	// of rebuilding both slices per entity.
	if cap(s.oppIdx) < len(views) {
		s.oppIdx = make([]int, len(views))
		s.freshIdx = make([]int, len(views))
	}
	s.oppIdx = s.oppIdx[:len(views)]
	s.freshIdx = s.freshIdx[:len(views)]
	s.oppCands = s.oppCands[:0]
	s.freshCands = s.freshCands[:0]
	for i := range views {
		s.oppIdx[i], s.freshIdx[i] = -1, -1
		if views[i].Down {
			continue
		}
		s.freshIdx[i] = len(s.freshCands)
		s.freshCands = append(s.freshCands, packing.Candidate{VM: i, Available: fresh[i]})
		if s.latest[i].Unlocked {
			s.oppIdx[i] = len(s.oppCands)
			s.oppCands = append(s.oppCands, packing.Candidate{VM: i, Available: opp[i]})
		}
	}
	s.arena.reset()
	for _, e := range entities {
		allocs := s.allocBuf[:0]
		var need resource.Vector
		for _, j := range e.Jobs {
			a := s.alloc(j)
			allocs = append(allocs, a)
			need = need.Add(a)
		}
		s.allocBuf = allocs
		if vm, ok := s.strategy.Choose(need, s.oppCands, s.maxCap); ok {
			opp[vm] = opp[vm].Sub(need).ClampNonNegative()
			s.oppCands[s.oppIdx[vm]].Available = opp[vm]
			s.arena.add(e.Jobs, allocs, vm, true)
			continue
		}
		if vm, ok := s.strategy.Choose(need, s.freshCands, s.maxCap); ok {
			fresh[vm] = fresh[vm].Sub(need).ClampNonNegative()
			s.freshCands[s.freshIdx[vm]].Available = fresh[vm]
			s.arena.add(e.Jobs, allocs, vm, false)
		}
		// Otherwise the entity stays queued; the simulator re-offers its
		// jobs next slot.
	}
	return s.arena.placements
}

// randomScheduler implements RCCR's and CloudScale's placement: each job
// individually, on a uniformly random VM whose predicted unused resources
// satisfy it, falling back to a random VM with fresh headroom.
//
// The pools are kept in structure-of-arrays form (one flat float64 slice
// per resource kind, rebuilt from the views at the top of each Place call)
// so the per-job feasibility scan streams three dense arrays instead of
// walking []resource.Vector plus a 56-byte VMView per VM. Down VMs hold
// -Inf in every kind, which fails the fit comparison for any real demand —
// exactly the set the old explicit Down check excluded — without a branch
// or a views load in the scan. At the scale profile (350k jobs × 20000
// VMs) this scan is the single largest cost in the whole run.
type randomScheduler struct {
	base
	name        string
	allocFactor float64
	// fits is randomFit's reused candidate buffer.
	fits []int32
	// soaOpp/soaFresh are the per-kind pool arrays; soaOpp[k][i] is VM i's
	// opportunistic pool in kind k (-Inf when the VM is down). soaOppQ /
	// soaFreshQ mirror them with fitEps pre-added — the scan arrays: the
	// feasibility test `demand > pool+eps` reads the precomputed sum, so
	// the per-VM comparison is two loads and a compare (and vectorizes;
	// see fitscan.go). -Inf + fitEps is still -Inf, so down sentinels
	// survive the precomputation.
	soaOpp    [resource.NumKinds][]float64
	soaFresh  [resource.NumKinds][]float64
	soaOppQ   [resource.NumKinds][]float64
	soaFreshQ [resource.NumKinds][]float64
	// susOpp/susFresh are the per-pool suspect indexes (suspect.go): on
	// large fleets most lanes provably fit the typical demand, so the
	// per-job kernel scan runs over the packed suspect lanes only. susT
	// is the call's gate threshold. demandScratch holds every job's
	// allocation for a gated call; quantScratch is demandQuantile's buffer.
	susOpp        suspectIndex
	susFresh      suspectIndex
	susT          [resource.NumKinds]float64
	susOn         bool
	demandScratch []resource.Vector
	quantScratch  []float64
	arena         placementArena
}

func (s *randomScheduler) Name() string { return s.name }

// buildSoAPools fills the per-kind pool arrays from the views. Values are
// the same b.oppAvailable / FreshAvailable vectors pools() would copy,
// only transposed; down VMs become -Inf sentinels.
func (s *randomScheduler) buildSoAPools(views []VMView) {
	n := len(views)
	if cap(s.soaOpp[0]) < n {
		for k := 0; k < resource.NumKinds; k++ {
			s.soaOpp[k] = make([]float64, n)
			s.soaFresh[k] = make([]float64, n)
			s.soaOppQ[k] = make([]float64, n)
			s.soaFreshQ[k] = make([]float64, n)
		}
	}
	for k := 0; k < resource.NumKinds; k++ {
		s.soaOpp[k] = s.soaOpp[k][:n]
		s.soaFresh[k] = s.soaFresh[k][:n]
		s.soaOppQ[k] = s.soaOppQ[k][:n]
		s.soaFreshQ[k] = s.soaFreshQ[k][:n]
	}
	negInf := math.Inf(-1)
	for i := range views {
		if views[i].Down {
			for k := 0; k < resource.NumKinds; k++ {
				s.soaOpp[k][i] = negInf
				s.soaFresh[k][i] = negInf
				s.soaOppQ[k][i] = negInf
				s.soaFreshQ[k][i] = negInf
			}
			continue
		}
		o := s.oppAvailable(i, views[i])
		f := views[i].FreshAvailable
		for k := 0; k < resource.NumKinds; k++ {
			s.soaOpp[k][i] = o[k]
			s.soaFresh[k][i] = f[k]
			s.soaOppQ[k][i] = o[k] + fitEps
			s.soaFreshQ[k][i] = f[k] + fitEps
		}
	}
}

// poolAt gathers VM i's pool vector back out of the SoA arrays.
func poolAt(pool *[resource.NumKinds][]float64, i int) resource.Vector {
	return resource.Vector{pool[0][i], pool[1][i], pool[2][i]}
}

func (s *randomScheduler) Place(jobs []*job.Job, views []VMView) []Placement {
	s.buildSoAPools(views)
	s.arena.reset()
	s.susOpp.reset()
	s.susFresh.reset()
	// On a fleet wide enough for the suspect indexes, precompute the
	// call's demands (PeakDemand walks a job's whole usage series, so once
	// per job per call) and the gate threshold they give. The indexes
	// themselves build lazily: the fresh one often never does (the
	// opportunistic pool fits nearly every job at scale). A narrower fleet
	// sizes each job once, in the loop, and keeps no scratch.
	s.susOn = len(views) >= suspectMinLanes && len(jobs) > 0
	if s.susOn {
		s.demandScratch = s.demandScratch[:0]
		for _, j := range jobs {
			s.demandScratch = append(s.demandScratch, s.allocFor(j))
		}
		s.susT, s.quantScratch = demandQuantile(s.demandScratch, s.quantScratch)
	}
	for i, j := range jobs {
		var alloc resource.Vector
		if s.susOn {
			alloc = s.demandScratch[i]
		} else {
			alloc = s.allocFor(j)
		}
		if vm, ok := s.randomFit(alloc, &s.soaOppQ, &s.susOpp); ok {
			p := poolAt(&s.soaOpp, vm).Sub(alloc).ClampNonNegative()
			for k := 0; k < resource.NumKinds; k++ {
				s.soaOpp[k][vm] = p[k]
				s.soaOppQ[k][vm] = p[k] + fitEps
			}
			s.susOpp.noteUpdate(&s.soaOppQ, vm)
			s.arena.add(jobs[i:i+1], []resource.Vector{alloc}, vm, true)
			continue
		}
		if vm, ok := s.randomFit(alloc, &s.soaFreshQ, &s.susFresh); ok {
			p := poolAt(&s.soaFresh, vm).Sub(alloc).ClampNonNegative()
			for k := 0; k < resource.NumKinds; k++ {
				s.soaFresh[k][vm] = p[k]
				s.soaFreshQ[k][vm] = p[k] + fitEps
			}
			s.susFresh.noteUpdate(&s.soaFreshQ, vm)
			s.arena.add(jobs[i:i+1], []resource.Vector{alloc}, vm, false)
		}
	}
	return s.arena.placements
}

// allocFor is what the scheme allocates job j: its padded peak demand,
// scaled.
func (s *randomScheduler) allocFor(j *job.Job) resource.Vector {
	return padStorage(j.PeakDemand()).Scale(s.allocFactor * s.tight)
}

// randomFit returns a uniformly random up-VM index whose pool satisfies
// demand. Both paths — the suspect index over packed suspect lanes and the
// flat scan over every lane — evaluate exactly resource.Vector.FitsIn over
// the precomputed pool+eps arrays, !(demand > pool+eps) per kind, so the
// candidate count, the single rng.Intn draw per successful call, and the
// selected lane are bit-identical to the AoS implementation they replaced.
func (s *randomScheduler) randomFit(demand resource.Vector, q *[resource.NumKinds][]float64, sus *suspectIndex) (int, bool) {
	if s.susOn && demand[0] <= s.susT[0] && demand[1] <= s.susT[1] && demand[2] <= s.susT[2] {
		if !sus.built {
			sus.build(q, s.susT)
		}
		count := sus.scan(q, demand[0], demand[1], demand[2])
		if count == 0 {
			return 0, false
		}
		return sus.selectNth(s.rng.Intn(count)), true
	}
	s.fits = fitScan(q[0], q[1], q[2], demand[0], demand[1], demand[2], s.fits)
	if len(s.fits) == 0 {
		return 0, false
	}
	return int(s.fits[s.rng.Intn(len(s.fits))]), true
}

// placementArena is a reused backing store for the Placement slices every
// scheduler returns: one placements slice plus flat job/alloc arrays that
// each placement's Jobs/Allocs subslices are carved from. It eliminates the
// small heap allocations per placement (hundreds of thousands per scale
// run). Per the Scheduler.Place contract the returned placements are only
// valid until the next Place call, which is exactly when the arena is
// reset.
type placementArena struct {
	placements []Placement
	jobs       []*job.Job
	allocs     []resource.Vector
}

func (a *placementArena) reset() {
	a.placements = a.placements[:0]
	a.jobs = a.jobs[:0]
	a.allocs = a.allocs[:0]
}

// add records one placement of jobs, allocs[i] granted to jobs[i], copying
// both into the arena.
func (a *placementArena) add(jobs []*job.Job, allocs []resource.Vector, vm int, opp bool) {
	// Full-capacity subslices: if a later append grows the backing array,
	// already-taken subslices keep pointing at the old one — still valid
	// for the lifetime of this Place call's result.
	j0, a0 := len(a.jobs), len(a.allocs)
	a.jobs = append(a.jobs, jobs...)
	a.allocs = append(a.allocs, allocs...)
	a.placements = append(a.placements, Placement{
		Jobs:          a.jobs[j0:len(a.jobs):len(a.jobs)],
		Allocs:        a.allocs[a0:len(a.allocs):len(a.allocs)],
		VM:            vm,
		Opportunistic: opp,
	})
}

// draScheduler implements DRA: demand-based allocation from unallocated
// capacity only, with VMs holding high/medium/low shares in the paper's
// 4:2:1 ratio; feasible VMs are chosen randomly with share-proportional
// probability.
type draScheduler struct {
	base
	shares []int
	bulk   float64
	arena  placementArena
}

func newDRAScheduler(b base, bulk float64) *draScheduler {
	s := &draScheduler{base: b, shares: make([]int, len(b.caps)), bulk: bulk}
	shareMix := []int{4, 2, 1} // high : medium : low
	for i := range s.shares {
		s.shares[i] = shareMix[i%len(shareMix)]
	}
	return s
}

func (s *draScheduler) Name() string { return "DRA" }

func (s *draScheduler) Place(jobs []*job.Job, views []VMView) []Placement {
	// DRA never touches the opportunistic pool; reuse only the fresh copy.
	if cap(s.freshPool) < len(views) {
		s.freshPool = make([]resource.Vector, len(views))
	}
	fresh := s.freshPool[:len(views)]
	for i, v := range views {
		fresh[i] = v.FreshAvailable
	}
	s.arena.reset()
	for i, j := range jobs {
		alloc := padStorage(j.PeakDemand()).Scale(s.bulk * s.tight)
		vm, ok := s.shareWeightedFit(alloc, fresh, views)
		if !ok {
			continue
		}
		fresh[vm] = fresh[vm].Sub(alloc).ClampNonNegative()
		s.arena.add(jobs[i:i+1], []resource.Vector{alloc}, vm, false)
	}
	return s.arena.placements
}

// shareWeightedFit picks a feasible up VM with probability proportional to
// its share.
func (s *draScheduler) shareWeightedFit(demand resource.Vector, pools []resource.Vector, views []VMView) (int, bool) {
	total := 0
	for i, p := range pools {
		if !views[i].Down && demand.FitsIn(p) {
			total += s.shares[i]
		}
	}
	if total == 0 {
		return 0, false
	}
	pick := s.rng.Intn(total)
	for i, p := range pools {
		if views[i].Down || !demand.FitsIn(p) {
			continue
		}
		pick -= s.shares[i]
		if pick < 0 {
			return i, true
		}
	}
	return 0, false
}
