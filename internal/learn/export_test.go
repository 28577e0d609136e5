package learn

// WithScratchRefinement returns opts with the scratch-rebuild reference
// path switched on, for the tests of package learn_test.
func WithScratchRefinement(opts Options) Options {
	opts.scratchRefinement = true
	return opts
}
