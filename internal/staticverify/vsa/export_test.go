package vsa

// AnalyzeSharded exposes the explicit-shard-count analysis to the
// external tests.
var AnalyzeSharded = analyzeSharded
