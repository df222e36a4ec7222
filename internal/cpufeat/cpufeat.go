// Package cpufeat is the repo's one CPU-feature probe: the assembly
// kernels (the scheduler's AVX-512 fit scan, the DNN's AVX2 layer kernels)
// select themselves once at init from these booleans. Off amd64 all are
// constant false and every caller runs its portable Go loop.
package cpufeat
