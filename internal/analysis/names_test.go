package analysis

import (
	"testing"

	"repro/internal/trace"
)

// firstWordNames are names across every path of firstWord: ASCII,
// uppercase, digit- or symbol-led, non-ASCII letters, invalid UTF-8 and
// empty.
var firstWordNames = []string{
	"", "ingest", "ingest_daily_42", "ad hoc query", "a", "x9y",
	"Ingest", "INGEST", "ingestDaily", "etl-Job", "ÉTL",
	"42ingest", "__etl-7", "#ad hoc", "  spaced out", "123", "-_-",
	"énorme job", "jobé", "ünd", "日本 job", "job日本", "select·from",
	"job\xffx", "\xff", "\xffjob", "job\xc3", "\xe2\x82",
}

// TestFirstWordMatchesFirstWord holds the non-allocating first word to
// FirstWord on every kind of name.
func TestFirstWordMatchesFirstWord(t *testing.T) {
	for _, name := range firstWordNames {
		if got, want := firstWord(name), FirstWord(name); got != want {
			t.Errorf("firstWord(%q) = %q, FirstWord gives %q", name, got, want)
		}
	}
}

// FuzzFirstWord: firstWord equals FirstWord on any string.
func FuzzFirstWord(f *testing.F) {
	for _, name := range firstWordNames {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if got, want := firstWord(name), FirstWord(name); got != want {
			t.Fatalf("firstWord(%q) = %q, FirstWord gives %q", name, got, want)
		}
	})
}

// TestNamesObserveAllocs: ObserveColumns' per-row bucket lookup, for a
// name whose first word is a lowercase ASCII run and whose bucket
// exists, allocates nothing. It measures the lookup rather than the
// whole call because the call's pooled block sums allocate under
// -race, where sync.Pool drops items at random.
func TestNamesObserveAllocs(t *testing.T) {
	b := NewNamesBuilder("w")
	b.ObserveColumns(trace.OneRow(&trace.Job{Name: "ingest_42", InputBytes: 10, MapTime: 1.5, ReduceTime: 0.5}))
	if n := testing.AllocsPerRun(100, func() { b.group("ingest_42") }); n != 0 {
		t.Errorf("finding an existing bucket allocates %v times", n)
	}
}
