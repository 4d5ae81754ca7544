package serving

// Update is the -update flag, for the golden tests of the external test
// package.
var Update = update
