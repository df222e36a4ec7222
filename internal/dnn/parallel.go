package dnn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Distributed training (the paper's stated future work: "we will further
// consider designing a distributed deep learning training system to reduce
// the computation overhead caused by DNN").
//
// TrainParallel implements synchronous data-parallel training with
// per-epoch parameter averaging: each epoch the shuffled training set is
// sharded across W workers, every worker runs SGD on its shard against a
// private replica of the network, and the replicas' parameters are
// averaged back into the master before the validation check. Results are
// deterministic for a fixed seed and worker count.

// ParallelOptions extends TrainOptions with the worker count.
type ParallelOptions struct {
	TrainOptions
	// Workers is the number of data-parallel replicas; zero defaults to
	// GOMAXPROCS capped at 8 (averaging loses statistical efficiency
	// beyond small replica counts).
	Workers int
}

func (o ParallelOptions) withDefaults() ParallelOptions {
	o.TrainOptions = o.TrainOptions.withDefaults()
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 8 {
			o.Workers = 8
		}
	}
	return o
}

// TrainParallel runs the distributed training loop on the network in
// place. With Workers == 1 it is plain sequential SGD, one epoch after
// another.
func (n *Network) TrainParallel(samples []Sample, opts ParallelOptions) (TrainResult, error) {
	opts = opts.withDefaults()
	if len(samples) == 0 {
		return TrainResult{}, errors.New("dnn: no training samples")
	}
	nVal := int(float64(len(samples)) * opts.ValidationFrac)
	if nVal >= len(samples) {
		nVal = len(samples) - 1
	}
	train := samples[:len(samples)-nVal]
	val := samples[len(samples)-nVal:]
	if opts.Workers > len(train) {
		opts.Workers = len(train)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}

	replicas := make([]*Network, opts.Workers)
	res := TrainResult{ValidationCount: len(val)}
	prevVal := math.Inf(1)
	stalled := 0
	for epoch := 0; epoch < opts.MaxEpochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for w := range replicas {
			replicas[w] = n.Clone()
		}
		losses := make([]float64, opts.Workers)
		errs := make([]error, opts.Workers)
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Strided sharding keeps shard sizes within one sample
				// of each other for any worker count.
				for i := w; i < len(order); i += opts.Workers {
					s := train[order[i]]
					loss, err := replicas[w].TrainSample(s.Input, s.Target)
					if err != nil {
						errs[w] = err
						return
					}
					losses[w] += loss
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return res, fmt.Errorf("dnn: parallel epoch %d: %w", epoch, err)
			}
		}
		n.averageFrom(replicas)

		var trainLoss float64
		for _, l := range losses {
			trainLoss += l
		}
		res.TrainLoss = trainLoss / float64(len(train))
		res.Epochs = epoch + 1

		valLoss, err := n.Loss(val)
		if err != nil {
			return res, err
		}
		if nVal == 0 {
			valLoss = res.TrainLoss
		}
		res.ValidationLoss = valLoss
		if prevVal-valLoss < opts.Tolerance*math.Max(prevVal, 1e-12) {
			stalled++
			if stalled >= opts.Patience {
				res.Converged = true
				return res, nil
			}
		} else {
			stalled = 0
		}
		prevVal = valLoss
	}
	return res, nil
}

// averageFrom overwrites the network's parameters with the element-wise
// mean of the replicas'. The flat layout makes this two slab sweeps; the
// per-element replica summation order matches the jagged implementation,
// so averaged parameters are bit-identical.
func (n *Network) averageFrom(replicas []*Network) {
	if len(replicas) == 0 {
		return
	}
	inv := 1 / float64(len(replicas))
	for j := range n.wslab {
		var sum float64
		for _, r := range replicas {
			sum += r.wslab[j]
		}
		n.wslab[j] = sum * inv
	}
	for j := range n.bslab {
		var sum float64
		for _, r := range replicas {
			sum += r.bslab[j]
		}
		n.bslab[j] = sum * inv
	}
}
