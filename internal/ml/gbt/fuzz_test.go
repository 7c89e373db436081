package gbt

import (
	"bytes"
	"math"
	"testing"
)

// tinyModel is a small handwritten ensemble whose serialised form seeds
// the fuzzer and the corruption tests.
func tinyModel() *Model {
	return &Model{
		Params:       Params{NumTrees: 2, MaxDepth: 2, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1},
		FeatureNames: []string{"f0", "f1"},
		Base:         0.5,
		Trees: []Tree{
			{Nodes: []Node{
				{Feature: 0, Threshold: 1.5, Left: 1, Right: 2},
				{Feature: -1, Value: -0.125},
				{Feature: -1, Value: 0.25},
			}},
			{Nodes: []Node{{Feature: -1, Value: 0.0625}}},
		},
	}
}

// FuzzLoadModel proves LoadModel never panics (and never hands back a
// model that panics or hangs at inference) on arbitrary bytes.
func FuzzLoadModel(f *testing.F) {
	var buf bytes.Buffer
	if _, err := tinyModel().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add([]byte{})
	f.Add([]byte{0x32, 0x54, 0x47, 0x42}) // bare magic
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(data)
		if err != nil {
			return
		}
		// Whatever parsed must be safe to evaluate end to end.
		_ = m.Predict(make([]float64, len(m.FeatureNames)))
		_ = m.NumNodes()
		_ = m.WeightBytes()
	})
}

func TestLoadModelRoundTrip(t *testing.T) {
	m := tinyModel()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]float64{{0, 0}, {1, 7}, {2, -3}} {
		if a, b := m.Predict(row), back.Predict(row); math.Abs(a-b) > 1e-6 {
			t.Fatalf("round trip drifted on %v: %v vs %v", row, a, b)
		}
	}
}

func TestLoadModelCorruptBytes(t *testing.T) {
	var buf bytes.Buffer
	if _, err := tinyModel().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every single-byte corruption must either be rejected or yield a
	// model that still evaluates without panicking — silent structural
	// damage (a cycle, an empty tree, an out-of-range index) is the
	// failure mode this guards against.
	for i := range full {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), full...)
			mut[i] ^= flip
			m, err := LoadModel(mut)
			if err != nil {
				continue
			}
			_ = m.Predict(make([]float64, len(m.FeatureNames)))
		}
	}
	// Every strict prefix is an error, never a panic.
	for cut := 0; cut < len(full); cut++ {
		if _, err := LoadModel(full[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes parsed successfully", cut)
		}
	}
}

func TestReadRejectsStructuralDamage(t *testing.T) {
	write := func(m *Model) []byte {
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name   string
		mutate func(m *Model)
	}{
		{"empty-tree", func(m *Model) { m.Trees[1].Nodes = nil }},
		{"self-cycle", func(m *Model) { m.Trees[0].Nodes[0].Left = 0 }},
		{"backward-child", func(m *Model) {
			m.Trees[0].Nodes[1] = Node{Feature: 1, Threshold: 1, Left: 1, Right: 2}
		}},
		{"feature-out-of-range", func(m *Model) { m.Trees[0].Nodes[0].Feature = 99 }},
		{"child-out-of-range", func(m *Model) { m.Trees[0].Nodes[0].Right = 40 }},
	}
	for _, tc := range cases {
		m := tinyModel()
		tc.mutate(m)
		if _, err := LoadModel(write(m)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
