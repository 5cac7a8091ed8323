package contract

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// SmallBank implements the SmallBank benchmark contract used throughout the
// paper's evaluation (§6, "Workloads and metrics"): accounts with checking
// and savings balances, creation and money-transfer operations.
//
// Functions:
//
//	create_account(acct, balance)      — create checking+savings (one org)
//	create_random(acct)                — §6.3 non-deterministic creation
//	deposit_checking(acct, amount)
//	transact_savings(acct, amount)     — amount may be negative
//	send_payment(src, dst, amount)     — checking transfer (two orgs)
//	write_check(acct, amount)
//	amalgamate(src, dst)               — move all funds src→dst checking
//	query(acct)                        — read-only
type SmallBank struct{}

// Name implements Contract.
func (SmallBank) Name() string { return "smallbank" }

// sbKeys holds an account's interned state keys. The workload's account
// space is small and hit millions of times across a sweep, so the key
// strings are built once per account and shared: state maps, RW sets, and
// overlays all reference the same backing strings instead of churning a
// fresh concatenation per invocation. Parallel sweeps (-j N) execute
// SmallBank concurrently, hence the lock; unlike sync.Map, it boxes no key.
type sbKeys struct{ chk, sav string }

var sbKeyCache = struct {
	sync.Mutex
	m map[string]*sbKeys
}{m: make(map[string]*sbKeys)}

func sbKeysFor(acct string) *sbKeys {
	sbKeyCache.Lock()
	defer sbKeyCache.Unlock()
	k := sbKeyCache.m[acct]
	if k == nil {
		owned := strings.Clone(acct)
		k = &sbKeys{chk: "sb:chk:" + owned, sav: "sb:sav:" + owned}
		sbKeyCache.m[owned] = k
	}
	return k
}

// CheckingKey returns the world-state key for an account's checking balance.
func CheckingKey(acct string) string { return sbKeysFor(acct).chk }

// SavingsKey returns the world-state key for an account's savings balance.
func SavingsKey(acct string) string { return sbKeysFor(acct).sav }

func getBal(ctx *TxContext, key string) (int64, bool) {
	raw, ok := ctx.GetState(key)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func putBal(ctx *TxContext, key string, v int64) {
	var buf [20]byte
	ctx.PutState(key, append([]byte(nil), strconv.AppendInt(buf[:0], v, 10)...))
}

// Invoke implements Contract.
func (SmallBank) Invoke(ctx *TxContext, fn string, args [][]byte) error {
	switch fn {
	case "create_account":
		if len(args) != 2 {
			return fmt.Errorf("%w: create_account wants (acct, balance)", ErrAbort)
		}
		acct := string(args[0])
		bal, err := strconv.ParseInt(string(args[1]), 10, 64)
		if err != nil {
			return fmt.Errorf("%w: bad balance", ErrAbort)
		}
		if _, exists := ctx.GetState(CheckingKey(acct)); exists {
			return fmt.Errorf("%w: account %s exists", ErrAbort, args[0])
		}
		putBal(ctx, CheckingKey(acct), bal)
		putBal(ctx, SavingsKey(acct), bal)
		return nil

	case "create_random":
		// The §6.3 non-deterministic contract: "creates an account with
		// a random balance", so different nodes generate different
		// results — deliberately a bug-like contract.
		if len(args) != 1 {
			return fmt.Errorf("%w: create_random wants (acct)", ErrAbort)
		}
		acct := string(args[0])
		bal := ctx.Nondet().Int63n(1_000_000)
		putBal(ctx, CheckingKey(acct), bal)
		putBal(ctx, SavingsKey(acct), bal)
		return nil

	case "deposit_checking":
		if len(args) != 2 {
			return fmt.Errorf("%w: deposit_checking wants (acct, amount)", ErrAbort)
		}
		acct := string(args[0])
		amt, err := strconv.ParseInt(string(args[1]), 10, 64)
		if err != nil || amt < 0 {
			return fmt.Errorf("%w: bad amount", ErrAbort)
		}
		bal, ok := getBal(ctx, CheckingKey(acct))
		if !ok {
			return fmt.Errorf("%w: no account %s", ErrAbort, args[0])
		}
		putBal(ctx, CheckingKey(acct), bal+amt)
		return nil

	case "transact_savings":
		if len(args) != 2 {
			return fmt.Errorf("%w: transact_savings wants (acct, amount)", ErrAbort)
		}
		acct := string(args[0])
		amt, err := strconv.ParseInt(string(args[1]), 10, 64)
		if err != nil {
			return fmt.Errorf("%w: bad amount", ErrAbort)
		}
		bal, ok := getBal(ctx, SavingsKey(acct))
		if !ok {
			return fmt.Errorf("%w: no account %s", ErrAbort, args[0])
		}
		if bal+amt < 0 {
			return fmt.Errorf("%w: insufficient savings", ErrAbort)
		}
		putBal(ctx, SavingsKey(acct), bal+amt)
		return nil

	case "send_payment":
		if len(args) != 3 {
			return fmt.Errorf("%w: send_payment wants (src, dst, amount)", ErrAbort)
		}
		src, dst := string(args[0]), string(args[1])
		amt, err := strconv.ParseInt(string(args[2]), 10, 64)
		if err != nil || amt < 0 {
			return fmt.Errorf("%w: bad amount", ErrAbort)
		}
		sb, ok := getBal(ctx, CheckingKey(src))
		if !ok {
			return fmt.Errorf("%w: no account %s", ErrAbort, args[0])
		}
		if sb < amt {
			return fmt.Errorf("%w: insufficient funds", ErrAbort)
		}
		if src == dst {
			// A self-payment is a funds-checked no-op; naively applying
			// both writes would double-count through read-your-writes.
			return nil
		}
		db, ok := getBal(ctx, CheckingKey(dst))
		if !ok {
			return fmt.Errorf("%w: no account %s", ErrAbort, args[1])
		}
		putBal(ctx, CheckingKey(src), sb-amt)
		putBal(ctx, CheckingKey(dst), db+amt)
		return nil

	case "write_check":
		if len(args) != 2 {
			return fmt.Errorf("%w: write_check wants (acct, amount)", ErrAbort)
		}
		acct := string(args[0])
		amt, err := strconv.ParseInt(string(args[1]), 10, 64)
		if err != nil || amt < 0 {
			return fmt.Errorf("%w: bad amount", ErrAbort)
		}
		chk, ok := getBal(ctx, CheckingKey(acct))
		if !ok {
			return fmt.Errorf("%w: no account %s", ErrAbort, args[0])
		}
		sav, _ := getBal(ctx, SavingsKey(acct))
		if chk+sav < amt {
			// SmallBank semantics: overdraft penalty.
			putBal(ctx, CheckingKey(acct), chk-amt-1)
		} else {
			putBal(ctx, CheckingKey(acct), chk-amt)
		}
		return nil

	case "amalgamate":
		if len(args) != 2 {
			return fmt.Errorf("%w: amalgamate wants (src, dst)", ErrAbort)
		}
		src, dst := string(args[0]), string(args[1])
		sav, ok := getBal(ctx, SavingsKey(src))
		if !ok {
			return fmt.Errorf("%w: no account %s", ErrAbort, args[0])
		}
		chk, _ := getBal(ctx, CheckingKey(src))
		if src == dst {
			// Self-amalgamate folds savings into checking.
			putBal(ctx, SavingsKey(src), 0)
			putBal(ctx, CheckingKey(src), chk+sav)
			return nil
		}
		dchk, ok := getBal(ctx, CheckingKey(dst))
		if !ok {
			return fmt.Errorf("%w: no account %s", ErrAbort, args[1])
		}
		putBal(ctx, SavingsKey(src), 0)
		putBal(ctx, CheckingKey(src), 0)
		putBal(ctx, CheckingKey(dst), dchk+sav+chk)
		return nil

	case "query":
		if len(args) != 1 {
			return fmt.Errorf("%w: query wants (acct)", ErrAbort)
		}
		if _, ok := getBal(ctx, CheckingKey(string(args[0]))); !ok {
			return fmt.Errorf("%w: no account", ErrAbort)
		}
		return nil

	default:
		return fmt.Errorf("%w: unknown function %q", ErrAbort, fn)
	}
}
