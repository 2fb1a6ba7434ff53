package posix

// RunDifferential lets the external test package drive the MemFS/OSFS
// differential over wrapper compositions it builds from other packages.
var RunDifferential = runDifferential
