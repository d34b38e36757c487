// The benchmark is a module of its own so that it builds from its own
// directory; the module path keeps the parent's prefix, which is what lets
// it import the parent's internal packages through the replace below.
module github.com/rtsync/rwrnlp/benchmark

go 1.22

require github.com/rtsync/rwrnlp v0.0.0

replace github.com/rtsync/rwrnlp => ../
