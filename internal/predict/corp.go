package predict

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dnn"
	"repro/internal/hmm"
	"repro/internal/resource"
	"repro/internal/stats"
)

// CorpConfig parameterizes the CORP predictor (paper Table II defaults).
type CorpConfig struct {
	// InputSlots is Δ, how many recent slots feed the DNN. Zero defaults
	// to 12 (two windows of history at L = 6).
	InputSlots int
	// Window is L, the prediction horizon in slots. Zero defaults to 6
	// (one minute of 10-second slots, the paper's choice).
	Window int
	// HiddenLayers and UnitsPerLayer fix the DNN topology; zero defaults
	// to 2 hidden layers of 50 units — with input and output that is the
	// paper's h = 4 layers × 50 units.
	HiddenLayers  int
	UnitsPerLayer int
	// LearningRate is μ of Eq. 8; zero defaults to 0.5.
	LearningRate float64
	// Eta is the confidence level η; zero defaults to 0.80, the upper-middle
	// of Table II’s 50–90% range.
	Eta float64
	// Epsilon is the capacity-relative prediction error tolerance ε of
	// Eq. 21; zero defaults to 0.10.
	Epsilon float64
	// Pth is the probability threshold of Eq. 21; zero defaults to 0.95
	// (Table II).
	Pth float64
	// ReplaySteps is how many stored samples each online training step
	// replays (the multi-epoch approximation). Zero defaults to 5; fleet
	// deployments that feed the shared brain from many VMs can lower it.
	ReplaySteps int
	// Seed drives DNN initialization and HMM perturbation.
	Seed int64
	// DisableHMM and DisableCI switch off the fluctuation correction and
	// the confidence-interval adjustment; used by the ablation benches.
	DisableHMM bool
	DisableCI  bool
}

func (c CorpConfig) withDefaults() CorpConfig {
	if c.InputSlots <= 0 {
		c.InputSlots = 12
	}
	if c.Window <= 0 {
		c.Window = 6
	}
	if c.HiddenLayers <= 0 {
		c.HiddenLayers = 2
	}
	if c.UnitsPerLayer <= 0 {
		c.UnitsPerLayer = 50
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.5
	}
	if c.Eta <= 0 {
		c.Eta = 0.80
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.10
	}
	if c.Pth <= 0 {
		c.Pth = 0.95
	}
	if c.ReplaySteps <= 0 {
		c.ReplaySteps = 5
	}
	return c
}

// brainKind is one resource kind's complete training state: its network,
// replay ring, batch-assembly buffers, replay RNG, and counters. Kinds
// share nothing, so the scheduler's training fan-out can run the kinds
// concurrently (each kind's stream still serialized in VM order) without
// changing any figure.
type brainKind struct {
	net       *dnn.Network
	rng       *rand.Rand
	replayIn  []float64 // ring slab: replayCap rows × InputSlots
	replayTgt []float64 // ring slab: replayCap targets
	replayLen int
	replayPos int
	batchIn   []float64 // (1+ReplaySteps) rows × InputSlots
	batchTgt  []float64 // (1+ReplaySteps) targets
	// steps counts SGD updates; errs counts rejected online training
	// calls (malformed samples) so a broken feed cannot masquerade as a
	// trained predictor.
	steps int
	errs  int
}

// CorpBrain is the per-kind DNN shared by every VM's CORP predictor: all
// VMs feed training samples into the same networks, mirroring the paper's
// single model trained on the whole trace. Each resource kind's state is
// fully independent (own network, replay ring, RNG), so distinct kinds may
// train concurrently (the scheduler's per-kind training goroutines); within
// a kind, calls must stay serialized in a fixed VM order for
// reproducibility. Each incoming sample is also pushed into
// the kind's replay ring; every online step additionally replays a few
// past samples, approximating the paper's multi-epoch training loop
// without buffering the whole trace.
//
// The rings are flat row-major slabs (row stride = InputSlots) and each
// online step assembles the new sample plus its replay picks into a
// preallocated batch fed to dnn.TrainBatch, so the per-slot training path
// performs no heap allocations.
type CorpBrain struct {
	cfg   CorpConfig
	kinds [resource.NumKinds]brainKind
}

// NewCorpBrain builds the shared networks.
func NewCorpBrain(cfg CorpConfig) (*CorpBrain, error) {
	cfg = cfg.withDefaults()
	b := &CorpBrain{cfg: cfg}
	sizes := []int{cfg.InputSlots}
	for i := 0; i < cfg.HiddenLayers; i++ {
		sizes = append(sizes, cfg.UnitsPerLayer)
	}
	sizes = append(sizes, 1)
	for k := range b.kinds {
		net, err := dnn.New(dnn.Config{
			LayerSizes:   sizes,
			LearningRate: cfg.LearningRate,
			Seed:         cfg.Seed + int64(k),
		})
		if err != nil {
			return nil, fmt.Errorf("predict: corp brain: %w", err)
		}
		kk := &b.kinds[k]
		kk.net = net
		kk.rng = rand.New(rand.NewSource((cfg.Seed ^ 0x7ab) + int64(k)*0x5851F42D4C957F2D))
		kk.replayIn = make([]float64, replayCap*cfg.InputSlots)
		kk.replayTgt = make([]float64, replayCap)
		kk.batchIn = make([]float64, (1+cfg.ReplaySteps)*cfg.InputSlots)
		kk.batchTgt = make([]float64, 1+cfg.ReplaySteps)
	}
	return b, nil
}

// TrainErrors returns how many online training calls were rejected,
// summed over resource kinds.
func (b *CorpBrain) TrainErrors() int {
	n := 0
	for k := range b.kinds {
		n += b.kinds[k].errs
	}
	return n
}

// replayCap bounds the per-kind replay ring.
const replayCap = 4096

// train performs one online SGD step for kind k on the new sample plus a
// few replayed past samples, all in a single TrainBatch call. The batch is
// assembled in the order the original per-sample loop trained (new sample
// first, then each replay pick as drawn), so results are bit-identical to
// sequential TrainSample calls. Touches only kind k's state; concurrent
// calls for distinct kinds are safe.
func (b *CorpBrain) train(k resource.Kind, input []float64, target float64) error {
	in := b.cfg.InputSlots
	kk := &b.kinds[k]
	if len(input) != in {
		kk.errs++
		return fmt.Errorf("predict: train kind %v: input length %d, want %d", k, len(input), in)
	}
	copy(kk.batchIn[:in], input)
	kk.batchTgt[0] = target
	// Push the new sample into the ring (it is eligible for its own
	// replay draw, as before).
	ring := kk.replayIn
	var pos int
	if kk.replayLen < replayCap {
		pos = kk.replayLen
		kk.replayLen++
	} else {
		pos = kk.replayPos
		kk.replayPos = (kk.replayPos + 1) % replayCap
	}
	copy(ring[pos*in:(pos+1)*in], input)
	kk.replayTgt[pos] = target
	count := 1
	for i := 0; i < b.cfg.ReplaySteps && kk.replayLen > 1; i++ {
		s := kk.rng.Intn(kk.replayLen)
		copy(kk.batchIn[count*in:(count+1)*in], ring[s*in:(s+1)*in])
		kk.batchTgt[count] = kk.replayTgt[s]
		count++
	}
	if _, err := kk.net.TrainBatch(kk.batchIn[:count*in], kk.batchTgt[:count]); err != nil {
		kk.errs++
		return err
	}
	kk.steps += count
	return nil
}

// CorpPredictor is one VM's CORP prediction pipeline.
//
// Observe splits into two phases so the scheduler can train the brain's
// kinds concurrently: ObserveLocal touches only this predictor's state
// (tracker plus staged training samples); FlushShared feeds the staged
// sample for one kind into the shared brain and must run in a fixed VM
// order per kind. Observe performs both phases.
type CorpPredictor struct {
	cfg   CorpConfig
	brain *CorpBrain
	track tracker

	hmms        []hmm.Model // one per kind, carved from the fleet's slab
	hmmScr      *hmmScratch // the fleet's, shared by every predictor
	predictions int
	// predRow is Predict's normalized DNN input row, reused across kinds.
	predRow []float64

	// Staged training samples from the last ObserveLocal, one per kind,
	// waiting for FlushShared to feed them to the brain.
	stageIn  [resource.NumKinds][]float64
	stageTgt [resource.NumKinds]float64
	stageOK  [resource.NumKinds]bool

	// HMM trust tracking: each window the previous symbol prediction is
	// scored against the realized band; the correction only fires while
	// the HMM is beating chance on this VM's trace.
	symPred [resource.NumKinds]hmm.Symbol
	symHave [resource.NumKinds]bool
	symHit  [resource.NumKinds]int
	symSeen [resource.NumKinds]int
}

// NewCorpPredictor builds a predictor for a VM of the given capacity,
// sharing the brain's networks: a fleet of one.
func NewCorpPredictor(brain *CorpBrain, capacity resource.Vector, seed int64) *CorpPredictor {
	return &NewCorpFleet(brain, []resource.Vector{capacity}, seed)[0]
}

// NewCorpFleet builds one CORP predictor per VM capacity, all sharing the
// brain's networks; VM i's kind-k HMM is seeded from seed + i + k. The
// predictors, their trackers, their staged-sample and prediction rows and
// their HMMs are carved from a few slabs, so the fleet costs a constant
// number of allocations however many VMs it has.
//
// The predictors of one fleet share one HMM scratch (the kernels' working
// memory and the symbolization buffers), so Predict must not run
// concurrently on two predictors of the same fleet. The scheduler's
// refresh is one serial pass, and its training fan-out never touches an
// HMM; predictors of distinct fleets share nothing but the brain.
func NewCorpFleet(brain *CorpBrain, caps []resource.Vector, seed int64) []CorpPredictor {
	cfg := brain.cfg
	in := cfg.InputSlots
	per := (resource.NumKinds + 1) * in // stageIn per kind, then predRow
	slab := newTrackerSlab(len(caps), cfg.Window, historyLen, true)
	rows := make([]float64, len(caps)*per)
	const nk = resource.NumKinds
	hmms := hmm.NewPaperFleet(len(caps)*nk, func(j int) int64 {
		return seed + int64(j/nk) + int64(j%nk)
	})
	scr := &hmmScratch{}
	fleet := make([]CorpPredictor, len(caps))
	for i, c := range caps {
		p := &fleet[i]
		*p = CorpPredictor{cfg: cfg, brain: brain, track: slab.tracker(i, c),
			hmms: hmms[i*nk : (i+1)*nk : (i+1)*nk], hmmScr: scr}
		own := rows[i*per : (i+1)*per]
		for k := range p.stageIn {
			p.stageIn[k] = own[k*in : (k+1)*in : (k+1)*in]
		}
		p.predRow = own[resource.NumKinds*in : per : per]
	}
	return fleet
}

// hmmScratch is the HMM side's working memory, one per fleet: the
// kernels' Scratch and hmmCorrect's symbolization buffers, which every
// call fully rewrites before reading.
type hmmScratch struct {
	kern  hmm.Scratch
	means []float64
	obs   []hmm.Symbol
}

// hmmRefit is how many predictions elapse between Baum–Welch refits.
const hmmRefit = 8

// Name implements Predictor.
func (p *CorpPredictor) Name() string { return "CORP" }

// Observe implements Predictor: it records the sample and performs one
// online SGD step per kind once enough history exists (input: the Δ slots
// preceding the last window; target: the realized mean of that window).
func (p *CorpPredictor) Observe(actual resource.Vector) {
	p.ObserveLocal(actual)
	for _, k := range resource.Kinds() {
		p.FlushShared(k)
	}
}

// ObserveLocal is the VM-local half of Observe. It records the sample in
// the tracker and stages one training sample per kind (once enough history
// exists) without touching the shared brain.
func (p *CorpPredictor) ObserveLocal(actual resource.Vector) {
	p.track.observe(actual)
	need := p.cfg.InputSlots + p.cfg.Window
	for _, k := range resource.Kinds() {
		p.stageOK[k] = false
		vals := p.track.histValues(k)
		if len(vals) < need {
			continue
		}
		capK := p.track.capacity[k]
		if capK <= 0 {
			continue
		}
		// Input: Δ slots ending one window ago; target: mean of the
		// window that just completed.
		inStart := len(vals) - need
		for i := 0; i < p.cfg.InputSlots; i++ {
			p.stageIn[k][i] = clamp01(vals[inStart+i] / capK)
		}
		p.stageTgt[k] = clamp01(stats.Mean(vals[len(vals)-p.cfg.Window:]) / capK)
		p.stageOK[k] = true
	}
}

// FlushShared is the shared half of Observe: it feeds the staged kind-k
// sample (if any) into the shared brain. Callers must serialize calls for the same kind in
// a fixed VM order; calls for distinct kinds may run concurrently because
// the brain's per-kind state is independent.
func (p *CorpPredictor) FlushShared(k resource.Kind) {
	if !p.stageOK[k] {
		return
	}
	p.stageOK[k] = false
	// Observe has no error channel (the Predictor interface treats
	// observation as fire-and-forget), but rejected samples are counted
	// by the brain and surfaced via TrainErrors/sim.Result so a broken
	// feed cannot silently disable learning.
	_ = p.brain.train(k, p.stageIn[k], p.stageTgt[k])
}

// TrainErrors returns how many of this predictor's training samples the
// shared brain rejected. The count is brain-wide (shared across the VMs
// feeding it).
func (p *CorpPredictor) TrainErrors() int { return p.brain.TrainErrors() }

// Predict implements Predictor: DNN estimate, HMM peak/valley correction,
// confidence-interval adjustment, Eq. 21 gate. The forward runs in the
// kind's shared network's own scratch, which is safe because no training
// overlaps a refresh: the scheduler's training fan-out joins before
// ObserveAll returns.
func (p *CorpPredictor) Predict() Prediction {
	p.predictions++
	var out resource.Vector
	unlocked := true
	z := stats.ZForConfidence(p.cfg.Eta)
	for _, k := range resource.Kinds() {
		capK := p.track.capacity[k]
		vals := p.track.histValues(k)
		var yhat float64
		if len(vals) < p.cfg.InputSlots || capK <= 0 {
			yhat = stats.Mean(vals) // cold start: the historical mean
		} else {
			yhat = p.forward(k, vals, capK) * capK
		}
		if !p.cfg.DisableHMM {
			yhat = p.hmmCorrect(k, vals, yhat)
		}
		if !p.cfg.DisableCI {
			yhat -= p.track.errStdDev(k) * z // Eq. 19 lower bound
		}
		if yhat < 0 {
			yhat = 0
		}
		out[k] = yhat
		// Eq. 21: enough evidence that errors land in [0, ε).
		frac, n := p.track.errWithin(k, p.cfg.Epsilon)
		if n < 8 || frac < p.cfg.Pth {
			unlocked = false
		}
	}
	out = p.track.clampToCapacity(out)
	p.track.recordPrediction(out)
	return Prediction{Unused: out, Unlocked: unlocked}
}

// forward returns the kind-k network's normalized estimate from the last
// Δ slots of vals, falling back to the normalized historical mean when the
// forward fails or yields NaN.
func (p *CorpPredictor) forward(k resource.Kind, vals []float64, capK float64) float64 {
	row := p.predRow
	for i := range row {
		row[i] = clamp01(vals[len(vals)-len(row)+i] / capK)
	}
	out, err := p.brain.kinds[k].net.Forward(row)
	if err != nil || math.IsNaN(out[0]) {
		return clamp01(stats.Mean(vals) / capK)
	}
	return out[0]
}

// hmmCorrect applies the Section III-A-1b fluctuation correction for one
// kind: symbolize the history, refit the HMM periodically, predict the
// next symbol (Eq. 17), and shift the estimate by min(h−m, m−l).
//
// Symbols and the correction magnitude are computed over window means (see
// hmm.ObserveLevels) so the correction operates in the same units as the
// DNN's window-mean estimate.
func (p *CorpPredictor) hmmCorrect(k resource.Kind, vals []float64, yhat float64) float64 {
	scr := p.hmmScr
	scr.means = hmm.AppendWindowMeans(scr.means[:0], vals, p.cfg.Window)
	means := scr.means
	sym, err := hmm.MakeSymbolizer(means)
	if err != nil {
		return yhat
	}
	scr.obs = sym.AppendObserveLevels(scr.obs[:0], vals, p.cfg.Window)
	obs := scr.obs
	if len(obs) < 5 {
		return yhat
	}
	model := &p.hmms[k]
	if p.predictions%hmmRefit == 1 {
		// A few EM iterations on the recent observation sequence; the
		// model warm-starts from its previous parameters.
		if _, _, err := model.BaumWelchInto(&scr.kern, obs, 5, 1e-5); err != nil {
			return yhat
		}
	}
	path, _, err := model.ViterbiInto(&scr.kern, obs)
	if err != nil {
		return yhat
	}
	next, dist, err := model.PredictNextSymbolInto(&scr.kern, path[len(path)-1])
	if err != nil {
		return yhat
	}
	// Score the previous window's symbol prediction against the realized
	// band, maintaining a running trust estimate.
	if p.symHave[k] {
		p.symSeen[k]++
		if p.symPred[k] == sym.SymbolForLevel(means[len(means)-1]) {
			p.symHit[k]++
		}
	}
	p.symPred[k] = next
	p.symHave[k] = true
	// Only correct when the Eq. 17 distribution is decisive AND the HMM
	// has demonstrated better-than-chance symbol accuracy here; a
	// hesitant or miscalibrated HMM would inject noise into an
	// already-good DNN estimate.
	if dist[next] < 0.5 {
		return yhat
	}
	if p.symSeen[k] >= 8 && float64(p.symHit[k]) < 0.55*float64(p.symSeen[k]) {
		return yhat
	}
	return sym.CorrectToward(yhat, next)
}

// DrainOutcomes implements Predictor.
func (p *CorpPredictor) DrainOutcomes() []ErrorSample {
	return p.track.drainOutcomes()
}

// AppendOutcomes implements Predictor: it appends the matured
// samples to dst and clears them while keeping the internal buffer's
// capacity for reuse.
func (p *CorpPredictor) AppendOutcomes(dst []ErrorSample) []ErrorSample {
	return p.track.appendOutcomes(dst)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
