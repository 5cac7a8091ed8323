package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"testing"
	"time"

	"github.com/bidl-framework/bidl/internal/bench"
	"github.com/bidl-framework/bidl/internal/consensus"
	"github.com/bidl-framework/bidl/internal/consensus/constest"
	"github.com/bidl-framework/bidl/internal/consensus/hotstuff"
	"github.com/bidl-framework/bidl/internal/consensus/pbft"
	"github.com/bidl-framework/bidl/internal/consensus/raft"
	"github.com/bidl-framework/bidl/internal/consensus/sbft"
	"github.com/bidl-framework/bidl/internal/consensus/zyzzyva"
	"github.com/bidl-framework/bidl/internal/contract"
	"github.com/bidl-framework/bidl/internal/crypto"
	"github.com/bidl-framework/bidl/internal/ledger"
	"github.com/bidl-framework/bidl/internal/metrics"
	"github.com/bidl-framework/bidl/internal/simnet"
	"github.com/bidl-framework/bidl/internal/trace"
	"github.com/bidl-framework/bidl/internal/trace/anatomy"
	"github.com/bidl-framework/bidl/internal/types"
	"github.com/bidl-framework/bidl/internal/workload"
)

// The ladder times calls into each layer's public functions, one rung per
// function, with inputs drawn from workload.Generator at the run seed. Every
// rung asserts what it computed, so a rung that got faster by doing the
// wrong thing fails instead.

// rung is one microbenchmark. It reports time per operation under timeName
// in timeUnit, and, when allocsName is set, allocations per operation.
type rung struct {
	timeName   string
	timeUnit   time.Duration
	allocsName string
	fn         func(b *testing.B)
}

// ladderBenchtime gives every rung the same slice of the run's time budget;
// with 37 rungs the ladder takes roughly a third of it.
func ladderBenchtime(seconds float64) string {
	return time.Duration(seconds / 200 * float64(time.Second)).String()
}

// runLadder runs every rung for benchtime each (a duration, or "1x" for a
// single iteration) and returns the per-layer ladder metrics plus the rungs
// whose assertion failed.
func runLadder(seed int64, benchtime string) (map[string]value, []string) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, []string{"ladder: " + err.Error()}
	}
	out := map[string]value{}
	var failures []string
	for _, r := range ladderRungs(seed) {
		res := testing.Benchmark(r.fn)
		if res.N == 0 {
			failures = append(failures, "ladder: rung "+r.timeName+" failed its assertion")
			continue
		}
		if r.timeName != "" {
			perOp := float64(res.T) / float64(res.N)
			out[r.timeName] = value{Value: perOp / float64(r.timeUnit)}
		}
		if r.allocsName != "" {
			out[r.allocsName] = value{Value: float64(res.MemAllocs) / float64(res.N)}
		}
	}
	return out, failures
}

// fixture is the input shared by the rungs: transactions from the
// generator, states prepopulated by it, and the executed read-write sets.
type fixture struct {
	scheme *crypto.HMACScheme
	txs    []*types.Transaction // uniform SmallBank, 10⁴ accounts
	reg    *contract.Registry
	small  *ledger.State // 10⁴ accounts (snapshot of the generator's base)
	big    *ledger.State // 10⁶ accounts over the functional base
	bigGen *workload.Generator
	keys   []string // keys the big transactions read: present in big's base
	rws    []*ledger.RWSet
}

const fixtureTxs = 4096

func newFixture(seed int64) *fixture {
	f := &fixture{scheme: crypto.NewHMACScheme([]byte(fmt.Sprintf("ladder-%d", seed)))}
	f.reg = contract.NewRegistry()
	f.reg.Deploy(contract.SmallBank{})
	f.reg.Deploy(contract.Settlement{})

	w := workload.DefaultConfig(4)
	w.Seed = seed
	gen := workload.NewGenerator(w, f.scheme)
	f.txs = gen.Batch(fixtureTxs)
	f.small = ledger.NewState()
	gen.Prepopulate(f.small)

	// The contended workload's shape: a working set far larger than any
	// cache, skewed draws, hot-set contention.
	w.Accounts = 1_000_000
	w.ZipfS = 1.5
	w.ContentionRatio = 0.5
	f.bigGen = workload.NewGenerator(w, f.scheme)
	f.big = ledger.NewState()
	f.bigGen.Prepopulate(f.big)
	for _, tx := range f.bigGen.Batch(fixtureTxs) {
		rw := f.reg.Execute(f.big, tx, nil)
		f.rws = append(f.rws, rw)
		for _, r := range rw.Reads {
			f.keys = append(f.keys, r.Key)
		}
	}
	return f
}

func ladderRungs(seed int64) []rung {
	f := newFixture(seed)
	rungs := []rung{
		{"crypto.hmac_sign_ns", time.Nanosecond, "crypto.hmac_sign_allocs", f.hmacSign},
		{"crypto.hmac_verify_ns", time.Nanosecond, "", f.hmacVerify},
		{"crypto.hash_1kb_ns", time.Nanosecond, "", hash1KB},
		{"types.tx_marshal_ns", time.Nanosecond, "", f.txMarshal},
		{"types.tx_unmarshal_ns", time.Nanosecond, "", f.txUnmarshal},
		{"types.tx_id_ns", time.Nanosecond, "", f.txID},
		{"types.ordering_encode_500_ns", time.Nanosecond, "", f.orderingEncode},
		{"workload.next_uniform_ns", time.Nanosecond, "", f.nextUniform(seed)},
		{"workload.next_zipf_ns", time.Nanosecond, "workload.next_allocs", f.nextZipf},
		{"ledger.state_get_ns", time.Nanosecond, "", f.stateGet},
		{"ledger.state_put_ns", time.Nanosecond, "", f.statePut},
		{"ledger.overlay_commit_ns", time.Nanosecond, "", f.overlayCommit},
		{"ledger.validate_mvcc_ns", time.Nanosecond, "", f.validateMVCC},
		{"ledger.state_equal_10k_us", time.Microsecond, "", f.stateEqual},
		{"ledger.state_digest_10k_us", time.Microsecond, "", f.stateDigest},
		{"contract.smallbank_execute_ns", time.Nanosecond, "contract.execute_allocs", f.smallbankExecute},
		{"contract.execute_transient_ns", time.Nanosecond, "", f.executeTransient},
		{"contract.settlement_execute_ns", time.Nanosecond, "", f.settlementExecute(seed)},
		{"simnet.event_ns", time.Nanosecond, "", simEvent},
		{"simnet.deliver_ns", time.Nanosecond, "simnet.deliver_allocs", simDeliver},
		{"simnet.multicast_50_ns", time.Nanosecond, "", simMulticast},
	}
	factories := map[string]constest.Factory{
		"pbft":     func(c consensus.Config, h consensus.Host) consensus.Replica { return pbft.New(c, h) },
		"hotstuff": func(c consensus.Config, h consensus.Host) consensus.Replica { return hotstuff.New(c, h) },
		"sbft":     func(c consensus.Config, h consensus.Host) consensus.Replica { return sbft.New(c, h) },
		"zyzzyva":  func(c consensus.Config, h consensus.Host) consensus.Replica { return zyzzyva.New(c, h) },
		"raft":     func(c consensus.Config, h consensus.Host) consensus.Replica { return raft.New(c, h) },
	}
	for _, p := range consensusProtocols {
		rungs = append(rungs,
			rung{"consensus." + p + ".decide_n4_us", time.Microsecond, "", decide(factories[p], 4, 1, seed)},
			rung{"consensus." + p + ".decide_n31_us", time.Microsecond, "", decide(factories[p], 31, 10, seed)})
	}
	return append(rungs,
		rung{"core.pipeline_txn_us", time.Microsecond, "core.pipeline_txn_allocs", bench.PipelineHotPath},
		rung{"metrics.record_commit_ns", time.Nanosecond, "", f.recordCommit},
		rung{"metrics.p99_query_20k_us", time.Microsecond, "", f.p99Query},
		rung{"trace.tx_stage_ns", time.Nanosecond, "", f.txStage},
		rung{"trace.anatomy_compute_ms", time.Millisecond, "", f.anatomyCompute},
		rung{"trace.jsonl_write_ms", time.Millisecond, "", f.jsonlWrite},
	)
}

// --- crypto ---------------------------------------------------------------

func (f *fixture) hmacSign(b *testing.B) {
	tx := f.txs[0]
	msg := tx.SigningBytes()
	var sig crypto.Signature
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, _ = f.scheme.Sign(tx.Client, msg)
	}
	b.StopTimer()
	if !f.scheme.Verify(tx.Client, msg, sig) {
		b.Fatal("signature does not verify")
	}
}

func (f *fixture) hmacVerify(b *testing.B) {
	ok := true
	for i := 0; i < b.N; i++ {
		tx := f.txs[i%len(f.txs)]
		ok = f.scheme.Verify(tx.Client, tx.SigningBytes(), tx.Sig) && ok
	}
	if !ok {
		b.Fatal("a generated signature did not verify")
	}
}

func hash1KB(b *testing.B) {
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(i)
	}
	var d crypto.Digest
	for i := 0; i < b.N; i++ {
		d = crypto.Hash(buf)
	}
	if d != crypto.Digest(sha256.Sum256(buf)) {
		b.Fatal("digest is not SHA-256 of the input")
	}
}

// --- types ----------------------------------------------------------------

func (f *fixture) txMarshal(b *testing.B) {
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = f.txs[i%len(f.txs)].Marshal()
	}
	if len(buf) == 0 {
		b.Fatal("empty encoding")
	}
}

func (f *fixture) txUnmarshal(b *testing.B) {
	bufs := make([][]byte, 64)
	for i := range bufs {
		bufs[i] = f.txs[i].Marshal()
	}
	b.ResetTimer()
	var tx *types.Transaction
	for i := 0; i < b.N; i++ {
		var err error
		if tx, err = types.UnmarshalTransaction(bufs[i%len(bufs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if want := f.txs[(b.N-1)%len(bufs)]; tx.ID() != want.ID() {
		b.Fatal("decoded transaction has a different ID")
	}
}

// txID times the uncached path: a copy of the exported fields has no cached
// signing bytes or ID, so ID() encodes the body and hashes it.
func (f *fixture) txID(b *testing.B) {
	src := f.txs[0]
	var id types.TxID
	for i := 0; i < b.N; i++ {
		cp := types.Transaction{Client: src.Client, Nonce: src.Nonce, View: src.View, Contract: src.Contract,
			Fn: src.Fn, Args: src.Args, Orgs: src.Orgs, Padding: src.Padding, Sig: src.Sig}
		id = cp.ID()
	}
	if id != src.ID() {
		b.Fatal("recomputed ID differs from the signed one")
	}
}

func (f *fixture) orderingEncode(b *testing.B) {
	const n = 500 // the default block size
	seqs := make([]uint64, n)
	hashes := make([]types.TxID, n)
	for i := range seqs {
		seqs[i] = uint64(i)
		hashes[i] = f.txs[i].ID()
	}
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = types.EncodeOrdering(seqs, hashes)
	}
	b.StopTimer()
	gotSeqs, gotHashes, err := types.DecodeOrdering(buf)
	if err != nil || len(gotSeqs) != n || gotHashes[n-1] != hashes[n-1] {
		b.Fatal("ordering does not round-trip")
	}
}

// --- workload -------------------------------------------------------------

func (f *fixture) nextUniform(seed int64) func(*testing.B) {
	w := workload.DefaultConfig(4)
	w.Seed = seed
	gen := workload.NewGenerator(w, f.scheme)
	return func(b *testing.B) { f.next(b, gen) }
}

func (f *fixture) nextZipf(b *testing.B) { f.next(b, f.bigGen) }

func (f *fixture) next(b *testing.B, gen *workload.Generator) {
	var tx *types.Transaction
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx = gen.Next()
	}
	b.StopTimer()
	if !tx.VerifySig(f.scheme) {
		b.Fatal("generated transaction is not validly signed")
	}
}

// --- ledger ---------------------------------------------------------------

func (f *fixture) stateGet(b *testing.B) {
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, _, ok := f.big.Get(f.keys[i%len(f.keys)]); ok {
			hits++
		}
	}
	if hits != b.N {
		b.Fatalf("%d of %d reads missed the base", b.N-hits, b.N)
	}
}

func (f *fixture) statePut(b *testing.B) {
	st := f.big.Clone()
	val := []byte("1000000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Put(f.keys[i%len(f.keys)], val, ledger.Version{Block: uint64(i)})
	}
	b.StopTimer()
	if got, _, ok := st.Get(f.keys[(b.N-1)%len(f.keys)]); !ok || string(got) != string(val) {
		b.Fatal("written value does not read back")
	}
}

// overlayCommit times one write through a speculative overlay, with the
// overlay committed into the state every 500 writes (a block's worth).
func (f *fixture) overlayCommit(b *testing.B) {
	st := f.big.Clone()
	ov := ledger.NewOverlay(st)
	val := []byte("999")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov.Put(f.keys[i%len(f.keys)], val, ledger.Version{Block: uint64(i / 500)})
		if i%500 == 499 {
			ov.Commit()
		}
	}
	ov.Commit()
	b.StopTimer()
	if got, _, ok := st.Get(f.keys[(b.N-1)%len(f.keys)]); !ok || string(got) != string(val) || ov.Pending() != 0 {
		b.Fatal("committed overlay write does not read back from the state")
	}
}

func (f *fixture) validateMVCC(b *testing.B) {
	valid := 0
	for i := 0; i < b.N; i++ {
		if ledger.ValidateMVCC(f.big, f.rws[i%len(f.rws)]) {
			valid++
		}
	}
	if valid != b.N {
		b.Fatalf("%d of %d read sets failed validation against the state they were read from", b.N-valid, b.N)
	}
}

// touched returns a clone of the 10⁴-account state with every SmallBank
// transaction of the fixture applied: about 10k delta entries over the base.
func (f *fixture) touched() *ledger.State {
	st := f.small.Clone()
	for i, tx := range f.txs {
		rw := f.reg.Execute(st, tx, nil)
		st.Apply(rw.Writes, ledger.Version{Block: 1, Tx: i})
	}
	return st
}

func (f *fixture) stateEqual(b *testing.B) {
	a, c := f.touched(), f.touched()
	b.ResetTimer()
	equal := true
	for i := 0; i < b.N; i++ {
		equal = a.Equal(c) && equal
	}
	if !equal {
		b.Fatal("two replays of the same transactions differ")
	}
}

func (f *fixture) stateDigest(b *testing.B) {
	a, c := f.touched(), f.touched()
	b.ResetTimer()
	var d crypto.Digest
	for i := 0; i < b.N; i++ {
		d = a.Digest()
	}
	b.StopTimer()
	if d != c.Digest() {
		b.Fatal("two replays of the same transactions digest differently")
	}
}

// --- contract -------------------------------------------------------------

func (f *fixture) smallbankExecute(b *testing.B) {
	aborted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rw := f.reg.Execute(f.small, f.txs[i%len(f.txs)], nil); rw.Aborted || len(rw.Writes) == 0 {
			aborted++
		}
	}
	if aborted > 0 {
		b.Fatalf("%d of %d funded transfers aborted", aborted, b.N)
	}
}

func (f *fixture) executeTransient(b *testing.B) {
	var sc contract.ExecScratch
	for i := 0; i < b.N; i++ {
		tx := f.txs[i%len(f.txs)]
		rw := f.reg.ExecuteTransient(f.small, tx, nil, &sc)
		if i == b.N-1 && rw.Digest() != f.reg.Execute(f.small, tx, nil).Digest() {
			b.Fatal("transient execution disagrees with Execute")
		}
	}
}

// settlementExecute replays a pure settlement stream (open → settle or
// cancel), applying each result so that follow-ups find their escrow.
func (f *fixture) settlementExecute(seed int64) func(*testing.B) {
	w := workload.DefaultConfig(4)
	w.Seed = seed
	w.SettlementRatio = 1
	gen := workload.NewGenerator(w, f.scheme)
	st := ledger.NewState()
	gen.Prepopulate(st)
	n := 0
	return func(b *testing.B) {
		txs := gen.Batch(b.N)
		aborted := 0
		b.ResetTimer()
		for _, tx := range txs {
			rw := f.reg.Execute(st, tx, nil)
			if rw.Aborted {
				aborted++
			}
			n++
			st.Apply(rw.Writes, ledger.Version{Block: uint64(n)})
		}
		if aborted > 0 {
			b.Fatalf("%d of %d settlement steps aborted", aborted, b.N)
		}
	}
}

// --- simnet ---------------------------------------------------------------

type ladderMsg struct{ size int }

func (m ladderMsg) Size() int { return m.size }

// simEvent churns a resident set of self-rescheduling timers: one op is one
// heap push and pop at a realistic queue depth.
func simEvent(b *testing.B) {
	s := simnet.NewSim(1)
	left := b.N
	for i := 0; i < 256; i++ {
		var fn func()
		fn = func() {
			if left <= 0 {
				return
			}
			left--
			s.After(time.Duration(1+s.Rand().Intn(1000))*time.Microsecond, fn)
		}
		s.After(time.Duration(i)*time.Microsecond, fn)
	}
	b.ResetTimer()
	s.Run()
	b.StopTimer()
	if s.Events() < uint64(b.N) {
		b.Fatalf("executed %d events, want at least %d", s.Events(), b.N)
	}
}

func simNetwork(receivers int) (*simnet.Sim, *simnet.Network, *simnet.Endpoint, *int) {
	s := simnet.NewSim(1)
	n := simnet.NewNetwork(s, simnet.DefaultTopology())
	got := new(int)
	count := simnet.HandlerFunc(func(*simnet.Context, simnet.NodeID, simnet.Message) { *got++ })
	sender := n.Register("sender", 0, count)
	for i := 0; i < receivers; i++ {
		n.Join("all", n.Register("rx", 0, count).ID())
	}
	return s, n, sender, got
}

// simDeliver sends one 1 KB message point to point and runs it to delivery.
func simDeliver(b *testing.B) {
	s, n, sender, got := simNetwork(1)
	to := n.Group("all")[0]
	msg := ladderMsg{size: 1024}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simnet.NewInjectedContext(n, sender).Send(to, msg)
		s.Run()
	}
	b.StopTimer()
	if *got != b.N {
		b.Fatalf("delivered %d of %d messages", *got, b.N)
	}
}

// simMulticast fans one message out to 50 receivers, the sequencer's
// broadcast in setting A.
func simMulticast(b *testing.B) {
	s, n, sender, got := simNetwork(50)
	msg := ladderMsg{size: 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simnet.NewInjectedContext(n, sender).Multicast("all", msg)
		s.Run()
	}
	b.StopTimer()
	if *got != 50*b.N {
		b.Fatalf("delivered %d of %d copies", *got, 50*b.N)
	}
}

// --- consensus ------------------------------------------------------------

// decide times one decided instance on an n-replica constest.Cluster:
// proposals go to the leader one at a time, 5 ms of virtual time apart, and
// every replica must deliver every one of them.
func decide(factory constest.Factory, n, faults int, seed int64) func(*testing.B) {
	return func(b *testing.B) {
		c := constest.NewCluster(n, faults, factory, constest.Options{Seed: seed, ViewTimeout: time.Hour})
		// Let start-up traffic (raft's election) settle before proposing.
		const settle, gap = 200 * time.Millisecond, 5 * time.Millisecond
		c.Run(settle)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Propose(settle+time.Duration(i)*gap, constest.Val(fmt.Sprintf("v%d", i)))
		}
		c.Run(settle + time.Duration(b.N)*gap + 500*time.Millisecond)
		b.StopTimer()
		for i, node := range c.Nodes {
			if len(node.Delivered) != b.N {
				b.Fatalf("replica %d decided %d of %d instances", i, len(node.Delivered), b.N)
			}
		}
	}
}

// --- metrics and trace ----------------------------------------------------

func (f *fixture) recordCommit(b *testing.B) {
	col := metrics.NewCollector()
	ids := make([]types.TxID, len(f.txs))
	for i, tx := range f.txs {
		ids[i] = tx.ID()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		id[0], id[1], id[2] = byte(i>>16), byte(i>>8), byte(i) // distinct per op
		at := time.Duration(i) * time.Microsecond
		col.Submitted(id, at)
		col.Committed(id, at+time.Millisecond, false)
	}
	b.StopTimer()
	if b.N < 1<<24 && col.NumCommitted() != b.N {
		b.Fatalf("recorded %d of %d commits", col.NumCommitted(), b.N)
	}
}

// p99Query adds one commit and asks for p99 over 20 000 latencies, which is
// what every summary does after a run: the new commit drops the cached sort.
func (f *fixture) p99Query(b *testing.B) {
	const n = 20000
	col := metrics.NewCollector()
	var id types.TxID
	record := func(i int) {
		id[0], id[1], id[2] = byte(i>>16), byte(i>>8), byte(i)
		col.Submitted(id, 0)
		col.Committed(id, time.Duration(1+i%997)*time.Microsecond, false)
	}
	for i := 0; i < n; i++ {
		record(i)
	}
	b.ResetTimer()
	var p99 time.Duration
	for i := 0; i < b.N; i++ {
		record(n + i)
		p99 = col.PercentileLatency(0.99, 0, time.Second)
	}
	if p99 < 980*time.Microsecond || p99 > 997*time.Microsecond {
		b.Fatalf("p99 of latencies cycling over 1..997 µs is %v", p99)
	}
}

// tracedTxs fills a tracer with the eight pipeline stages of n transactions.
func (f *fixture) tracedTxs(n int) *trace.Tracer {
	tr := trace.New(trace.Options{SpanCapacity: 8 * n})
	for i := 0; i < n; i++ {
		id := f.txs[i%len(f.txs)].ID()
		id[0], id[1] = byte(i>>8), byte(i)
		for st := trace.StageSubmit; st <= trace.StageNotified; st++ {
			tr.TxStage(id, st, i%50, time.Duration(i)*time.Millisecond/10+time.Duration(st)*time.Millisecond)
		}
	}
	return tr
}

func (f *fixture) txStage(b *testing.B) {
	tr := trace.New(trace.Options{SpanCapacity: 1 << 16})
	id := f.txs[0].ID()
	for i := 0; i < b.N; i++ {
		tr.TxStage(id, trace.Stage(i%int(trace.StageNotified+1)), i%50, time.Duration(i))
	}
	if got := uint64(len(tr.TxEvents())) + tr.DroppedTxEvents(); got != uint64(b.N) {
		b.Fatalf("tracer accounted for %d of %d events", got, b.N)
	}
}

const anatomyTxs = 5000

func (f *fixture) anatomyCompute(b *testing.B) {
	tr := f.tracedTxs(anatomyTxs)
	events, phases := tr.TxEvents(), tr.PhaseEvents()
	b.ResetTimer()
	var rep *anatomy.Report
	for i := 0; i < b.N; i++ {
		rep = anatomy.Compute(events, phases, anatomy.Options{})
	}
	b.StopTimer()
	var waits time.Duration
	for _, st := range rep.Stages {
		waits += st.Total
	}
	if rep.Complete != anatomyTxs || waits != rep.TotalE2E {
		b.Fatalf("anatomy: %d of %d complete, waits %v vs end-to-end %v", rep.Complete, anatomyTxs, waits, rep.TotalE2E)
	}
}

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func (f *fixture) jsonlWrite(b *testing.B) {
	tr := f.tracedTxs(anatomyTxs)
	b.ResetTimer()
	var w countWriter
	for i := 0; i < b.N; i++ {
		w = countWriter{}
		if err := tr.WriteJSONL(&w); err != nil {
			b.Fatal(err)
		}
	}
	if w.n == 0 {
		b.Fatal("empty export")
	}
}
