package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"barrierpoint/internal/core"
	"barrierpoint/internal/machine"
)

// refsJSON holds the output digests recorded at the default seed and full
// size, keyed "<workload>/<item>".
//
//go:embed refs.json
var refsJSON []byte

// headlineBandPct is the paper's accuracy band: cycle and instruction
// estimation error under 2.3% on the six accurate applications.
const headlineBandPct = 2.3

// accurateApps are the six applications experiments.Headline reports on
// (the seven evaluated ones minus LULESH).
var accurateApps = map[string]bool{
	"AMGMk": true, "CoMD": true, "graph500": true, "HPCG": true, "MCB": true, "miniFE": true,
}

// checker compares output digests with references and records every
// digest it sees.
type checker struct {
	refs map[string]string // nil: no reference applies to this run
	seen map[string]string
}

// newChecker picks the references for cfg: the recorded ones at the
// default seed and full size, cfg.refs when a caller supplies its own.
func newChecker(cfg config) *checker {
	c := &checker{refs: cfg.refs, seen: map[string]string{}}
	if c.refs == nil && !cfg.noRefs && cfg.seed == defaultSeed && !cfg.tiny {
		if err := json.Unmarshal(refsJSON, &c.refs); err != nil {
			panic(fmt.Sprintf("bpbench: embedded refs.json: %v", err))
		}
	}
	return c
}

// match records data's digest under key and reports whether it equals the
// reference (true when no reference applies).
func (c *checker) match(key string, data []byte) bool {
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	c.seen[key] = got
	if c.refs == nil {
		return true
	}
	return c.refs[key] == got
}

// studyJSON renders a study the way StudyResult.WriteJSON publishes it.
func studyJSON(res *core.StudyResult) []byte {
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
}

// collectionBytes serialises every measured and reference counter of a
// collection, bit for bit, for digesting.
func collectionBytes(col *core.Collection) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %s t=%d r=%d\n", col.Variant, col.Machine.Name, col.Threads, col.Reps)
	put := func(cs []machine.Counters) {
		for _, c := range cs {
			for _, v := range c {
				_ = binary.Write(&buf, binary.LittleEndian, math.Float64bits(v))
			}
		}
	}
	for _, rows := range [][][]machine.Counters{col.PerBP, col.PerBPStd, col.TruePerBP} {
		for _, r := range rows {
			put(r)
		}
	}
	put(col.Full)
	put(col.FullStd)
	put(col.TrueFull)
	return buf.Bytes()
}

// headline computes experiments.Headline's numbers over the studies of
// the six accurate applications: the best set's worst cycle and
// instruction error on either ISA, and the best speed-up.
func headline(studies []*core.StudyResult) (cycMax, insMax, speedupMax float64) {
	for _, res := range studies {
		if res == nil || !accurateApps[res.App] {
			continue
		}
		best := res.BestEval()
		for _, v := range []*core.Validation{best.X86, best.ARM} {
			if v == nil {
				continue
			}
			cycMax = math.Max(cycMax, v.AvgAbsErrPct[machine.Cycles])
			insMax = math.Max(insMax, v.AvgAbsErrPct[machine.Instructions])
		}
		speedupMax = math.Max(speedupMax, best.Set.Speedup())
	}
	return cycMax, insMax, speedupMax
}

// inBands reports whether a study of an accurate application keeps its
// best set inside the paper's error band on both ISAs.
func inBands(res *core.StudyResult) bool {
	if !accurateApps[res.App] {
		return true
	}
	best := res.BestEval()
	for _, v := range []*core.Validation{best.X86, best.ARM} {
		if v != nil && (v.AvgAbsErrPct[machine.Cycles] >= headlineBandPct ||
			v.AvgAbsErrPct[machine.Instructions] >= headlineBandPct) {
			return false
		}
	}
	return true
}

// recordRefs runs the workload once at the default seed and merges the
// digests it produced into the reference file at path.
func recordRefs(cfg config, path string) error {
	cfg.seed, cfg.trace, cfg.probes, cfg.noRefs = defaultSeed, false, 0, true
	w := workloads[cfg.workload](cfg)
	defer w.close()
	if err := w.setup(); err != nil {
		return err
	}
	var t tally
	if _, err := w.pass(context.Background(), &t); err != nil {
		return err
	}
	refs := map[string]string{}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range w.checker().seen {
		refs[k] = v
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
