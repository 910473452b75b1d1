package engine_test

import (
	"context"
	"testing"

	dcdatalog "repro"
	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/queries"
	"repro/internal/storage"
)

// TestDemandShapesAgainstNaive: the demand rewrite drops a guard only
// where a recursive body atom implies it, and probes the guards it keeps
// as soon as their variables bind. Bound TC left-linear and non-linear
// (guard dropped), right-linear and bound SG (guard kept) × Global/SSP/
// DWS × {1, 2, 4, 8} workers × demand on/off × cooperative threshold
// {0, default, ∞}, each cold and warm, all ≡ internal/naive.
func TestDemandShapesAgainstNaive(t *testing.T) {
	const seed = 5
	edges := datasets.Gnp(48, 120, seed)
	arc := map[string][]storage.Tuple{"arc": datasets.EdgeTuples(edges)}
	src := map[string]any{"src": edges[0].Src}
	cases := []paperCase{
		{q: queries.BoundTC(), edb: arc, params: src},
		{q: queries.BoundTCRightLinear(), edb: arc, params: src},
		{q: queries.BoundTCNonLinear(), edb: arc, params: src},
		{q: queries.BoundSG(), edb: arc, params: map[string]any{"v": edges[0].Dst}},
	}
	limits := []paperLimit{{"parallel", 0}, {"default", engine.CoopThreshold}, {"never-widen", neverWiden}}
	strategies := []dcdatalog.Strategy{dcdatalog.Global, dcdatalog.SSP, dcdatalog.DWS}
	for _, c := range cases {
		t.Run(c.q.Name, func(t *testing.T) {
			want := c.oracle(t)
			if len(want) == 0 {
				t.Fatal("oracle derived nothing; the case proves nothing")
			}
			var params []dcdatalog.Option
			for k, v := range c.params {
				params = append(params, dcdatalog.WithParam(k, v))
			}
			for _, l := range limits {
				t.Run(l.name, func(t *testing.T) {
					engine.SetCoopLimit(t, l.limit)
					for _, strat := range strategies {
						for _, workers := range []int{1, 2, 4, 8} {
							for _, demand := range []bool{true, false} {
								opts := append([]dcdatalog.Option{dcdatalog.WithWorkers(workers), dcdatalog.WithStrategy(strat)}, params...)
								if !demand {
									opts = append(opts, dcdatalog.WithoutDemandRewrite())
								}
								prep, err := c.newDB(t).Prepare(c.q.Source, opts...)
								if err != nil {
									t.Fatal(err)
								}
								if prep.DemandRewritten() != demand {
									t.Fatalf("DemandRewritten() = %v, want %v", prep.DemandRewritten(), demand)
								}
								for _, phase := range []string{"cold", "warm"} {
									res, err := prep.Exec(context.Background())
									if err != nil {
										t.Fatalf("%v w%d demand=%v %s: %v", strat, workers, demand, phase, err)
									}
									assertSame(t, c.q, res.Relation(c.q.Output), want)
								}
							}
						}
					}
				})
			}
		})
	}
}
