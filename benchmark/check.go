package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/naive"
	"repro/internal/parser"
	"repro/internal/pcg"
	"repro/internal/storage"
)

// digest is an order-independent checksum of a set of tuples: the row
// count and the XOR of the tuples' hashes. Two evaluations that derive
// the same relation in any order digest the same.
type digest struct {
	Rows int64  `json:"rows"`
	Hash uint64 `json:"hash"`
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashTuple(t storage.Tuple) uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = mix(h ^ uint64(v) + 0x9e3779b97f4a7c15)
	}
	return h
}

func digestOf(tuples []storage.Tuple) digest {
	d := digest{Rows: int64(len(tuples))}
	for _, t := range tuples {
		d.Hash ^= hashTuple(t)
	}
	return d
}

// fold adds the digest of the i-th operation of a script, so a script
// digests to one value that still depends on which operation returned
// what.
func (d *digest) fold(i int, o digest) {
	d.Rows += o.Rows
	d.Hash ^= mix(o.Hash + uint64(i+1)*0x9e3779b97f4a7c15 + uint64(o.Rows))
}

// goldenSeed is the seed golden.json was recorded with.
const goldenSeed = 42

//go:embed golden.json
var goldenJSON []byte

// golden returns the recorded full-scale digest of a workload's
// output at goldenSeed.
func golden(name string) (digest, bool, error) {
	var g map[string]digest
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return digest{}, false, fmt.Errorf("golden.json: %w", err)
	}
	d, ok := g[name]
	return d, ok, nil
}

// naiveEval runs a program through internal/naive, the evaluator that
// shares no planning or execution code with the engine, and returns
// the named relation.
func naiveEval(src string, schemas []*storage.Schema, edb map[string][]storage.Tuple, params map[string]int64, output string) ([]storage.Tuple, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*storage.Schema, len(schemas))
	for _, s := range schemas {
		byName[s.Name] = s
	}
	types := make(map[string]storage.Type, len(params))
	values := make(map[string]storage.Value, len(params))
	for k, v := range params {
		types[k] = storage.TInt
		values[k] = storage.IntVal(v)
	}
	analysis, err := pcg.Analyze(prog, byName, types)
	if err != nil {
		return nil, err
	}
	rels, err := naive.Eval(analysis, edb, nil, values)
	if err != nil {
		return nil, err
	}
	return rels[output], nil
}
