package ranking

// ComputeStats is StatsFor without the memo, for the external tests.
var ComputeStats = (*Dataset).computeStats
