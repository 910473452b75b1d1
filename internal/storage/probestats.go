package storage

// ProbeCounters is the per-worker bag of memory-level probe statistics.
// Every counted probe entry point takes a *ProbeCounters owned by the
// calling worker (or test), so the hot path increments plain cache-hot
// int64s — no atomics, no sharing. The engine sums worker bags into
// StratumStats at the end of a stratum.
//
// Semantics are uniform across the probe structures (base hash-index
// directories and the incremental join indexes):
//
//   - TagProbes / TagRejects: occupied directory or chain positions
//     inspected through the 1-byte tag lane, and how many of them were
//     rejected by the tag alone — without loading the full slot entry
//     or cached 64-bit hash.
//   - KeyCompares / KeySkips: full-key compares against arena tuples
//     actually performed, vs. rows accepted without any key compare
//     because the bucket passed the build-time single-key audit and its
//     first row already verified the probe key.
//   - BloomChecks / BloomSkips: nothing writes them, so they read 0.
//     They stay only because the frozen benchmark harness still reads
//     them, and go with its next revision (ROADMAP item 2).
type ProbeCounters struct {
	TagProbes   int64
	TagRejects  int64
	KeyCompares int64
	KeySkips    int64
	BloomChecks int64
	BloomSkips  int64
}

// Add accumulates another bag into c.
func (c *ProbeCounters) Add(o ProbeCounters) {
	c.TagProbes += o.TagProbes
	c.TagRejects += o.TagRejects
	c.KeyCompares += o.KeyCompares
	c.KeySkips += o.KeySkips
	c.BloomChecks += o.BloomChecks
	c.BloomSkips += o.BloomSkips
}

// TagRejectRate is the fraction of tag-lane inspections resolved by the
// one-byte compare alone.
func (c *ProbeCounters) TagRejectRate() float64 {
	if c.TagProbes == 0 {
		return 0
	}
	return float64(c.TagRejects) / float64(c.TagProbes)
}

// KeySkipRate is the fraction of arena rows accepted without a full-key
// compare — the share of full-key compares the tagged, audited
// directory eliminated relative to a per-row-compare walk.
func (c *ProbeCounters) KeySkipRate() float64 {
	total := c.KeyCompares + c.KeySkips
	if total == 0 {
		return 0
	}
	return float64(c.KeySkips) / float64(total)
}
