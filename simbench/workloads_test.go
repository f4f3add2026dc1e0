package main

import (
	"reflect"
	"testing"

	"pccsim/internal/runner"
	"pccsim/internal/stats"
)

func TestPrivateHitsDeterministicPerSeed(t *testing.T) {
	a, b := privateHits(7), privateHits(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two builds at one seed differ")
	}
	if reflect.DeepEqual(a, privateHits(8)) {
		t.Fatal("seeds 7 and 8 build the same program")
	}
}

func TestPrivateHitsLandsInL2(t *testing.T) {
	for _, seed := range []int64{defaultSeed, 3} {
		p := runPass(privateHitsJobs(seed))
		c := p.cells[0]
		if c.err != nil {
			t.Fatal(c.err)
		}
		ops := c.st.Loads + c.st.Stores
		if share := float64(c.st.L2Hits) / float64(ops); share < 0.9 {
			t.Errorf("seed %d: %d of %d ops hit L2 (%.3f), want >= 0.9", seed, c.st.L2Hits, ops, share)
		}
	}
}

func TestPaperCellsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 28 bake-off cells")
	}
	p := runPass(paperCells(defaultSeed))
	res := make([]*stats.Stats, len(p.cells))
	for i, c := range p.cells {
		if c.err != nil {
			t.Fatal(c.err)
		}
		res[i] = c.st
	}
	bad, err := compareGolden("..", res)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bad {
		if b {
			t.Errorf("cell %d differs from the golden", i)
		}
	}
	if p.memoHits != 0 {
		t.Errorf("memo served %d cells; every pass must simulate", p.memoHits)
	}

	// A missing result must fail its row and the rows normalized to it.
	res[0] = nil
	bad, err = compareGolden("..", res)
	if err != nil {
		t.Fatal(err)
	}
	if !bad[0] {
		t.Error("a missing result passed the golden check")
	}
}

func TestSerialTwinReproducesShardedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 256-node machines")
	}
	job := wideSharded(defaultSeed)[0]
	sharded := runPass([]runner.Job{job}).cells[0]
	twin := runPass([]runner.Job{serialTwin(job)}).cells[0]
	if sharded.err != nil || twin.err != nil {
		t.Fatal(sharded.err, twin.err)
	}
	if sharded.fp != twin.fp {
		t.Error("single-engine twin's statistics differ from the sharded run's")
	}
	if sharded.windows == 0 || len(sharded.shardSteps) != 2 {
		t.Errorf("sharded run reported %d windows over %d shards", sharded.windows, len(sharded.shardSteps))
	}
}
