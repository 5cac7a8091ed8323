package cost

import (
	"testing"
	"time"
)

func TestDefaultsMatchPaperQuantities(t *testing.T) {
	m := Default()
	// §4.1: an Intel E5 core verifies fewer than 10k signatures/s.
	perSec := time.Second / m.SigVerify
	if perSec > 10000 {
		t.Fatalf("signature verification rate %d/s exceeds the paper's <10k/s", perSec)
	}
	// §6.1: the sequential MVCC check processes ~32.3k txns/s.
	mvccPerSec := time.Second / m.MVCCCheck
	if mvccPerSec < 30000 || mvccPerSec > 35000 {
		t.Fatalf("MVCC rate %d/s, want ~32.3k", mvccPerSec)
	}
	// §6: the sequencer adds ~20µs per 1KB transaction.
	if m.SequencerPerTxn != 20*time.Microsecond {
		t.Fatalf("sequencer delay %v", m.SequencerPerTxn)
	}
	if m.MACVerify >= m.SigVerify/10 {
		t.Fatal("MACs must be far cheaper than signatures (§4.1)")
	}
}

func TestHashScalesWithSize(t *testing.T) {
	m := Default()
	if m.Hash(2048) != 2*m.Hash(1024) {
		t.Fatal("hash cost not linear in size")
	}
	if m.Hash(0) != 0 {
		t.Fatal("hashing nothing should cost nothing")
	}
}
