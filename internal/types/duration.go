package types

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"time"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("150ms", "1.2s") and unmarshals from either such a string or a JSON
// number of nanoseconds. It is the duration type of the scenario spec and of
// the fault schedule inside it, which is why it lives in this leaf package:
// both internal/scenario and internal/chaos declare fields of it.
type Duration time.Duration

// D converts to a time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// String renders the duration ("10ms").
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as a quoted string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(time.Duration(d).String())), nil
}

// UnmarshalJSON accepts "150ms"-style strings and nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		s, err := strconv.Unquote(string(b))
		if err != nil {
			return fmt.Errorf("scenario: bad duration %s: %w", b, err)
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	ns, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("scenario: bad duration %s: %w", b, err)
	}
	*d = Duration(time.Duration(ns))
	return nil
}

// Generate implements testing/quick.Generator, restricting random durations
// to a range whose String() form re-parses exactly.
func (Duration) Generate(r *rand.Rand, _ int) reflect.Value {
	span := int64(1000 * time.Hour)
	return reflect.ValueOf(Duration(r.Int63n(2*span) - span))
}
