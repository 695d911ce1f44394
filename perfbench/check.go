package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// storedDigests maps workload → output key → SHA-256 of the rendered
// output at the default seed. Rewrite it with -record-digests only when a
// change is meant to alter simulated output.
//
//go:embed digests.json
var storedDigests []byte

// checker verifies rendered outputs. At the default seed every output with
// a stored digest must match it; at any seed every repeat of a key must be
// byte-identical to the first output seen for that key.
type checker struct {
	digests map[string]string // nil unless the seed is the default
	first   map[string][32]byte
	checked int
	alter   bool // corrupt the next output (self-test of the check)
}

func newChecker(o options) (*checker, error) {
	c := &checker{first: map[string][32]byte{}, alter: o.alterOutput}
	if o.seed == defaultSeed {
		all := map[string]map[string]string{}
		if err := json.Unmarshal(storedDigests, &all); err != nil {
			return nil, fmt.Errorf("stored digests: %w", err)
		}
		c.digests = all[o.workload]
	}
	return c, nil
}

func (c *checker) check(key string, out []byte) error {
	if c.alter {
		out = bytes.Clone(out)
		if len(out) == 0 {
			out = []byte{0}
		}
		out[0] ^= 0x20
		c.alter = false
	}
	sum := sha256.Sum256(out)
	if prev, ok := c.first[key]; ok && prev != sum {
		return fmt.Errorf("output of %s differs from its first rendering", key)
	}
	c.first[key] = sum
	if want, ok := c.digests[key]; ok {
		c.checked++
		if got := hex.EncodeToString(sum[:]); got != want {
			return fmt.Errorf("output of %s has sha256 %s, stored digest %s", key, got[:12], want[:12])
		}
	}
	return nil
}

// recordDigests runs the named workload's deterministic request
// stream at the default seed, untimed, and rewrites its entry in the digest
// file (keeping the other workloads' entries).
func recordDigests(o options) error {
	path := filepath.Join("perfbench", "digests.json")
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	var got map[string][]byte
	var err error
	switch o.record {
	case "cold-web":
		got, err = coldWebOutputs(recordColdWeb)
	case "warm-figures":
		got, err = warmFiguresOutputs()
	case "serve-mix":
		got, err = serveMixOutputs(recordServeMix)
	default:
		return fmt.Errorf("unknown workload %q", o.record)
	}
	if err != nil {
		return err
	}
	d := map[string]string{}
	for k, out := range got {
		sum := sha256.Sum256(out)
		d[k] = hex.EncodeToString(sum[:])
	}
	all[o.record] = d
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %d %s digests in %s\n", len(d), o.record, path)
	return nil
}
