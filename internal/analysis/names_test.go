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

// TestNamesObserveAllocs: observing a job whose name's first word is a
// lowercase ASCII run into a bucket that exists allocates nothing.
func TestNamesObserveAllocs(t *testing.T) {
	b := NewNamesBuilder("w")
	j := &trace.Job{Name: "ingest_42", InputBytes: 10, MapTime: 1.5, ReduceTime: 0.5}
	b.Observe(j)
	if n := testing.AllocsPerRun(100, func() { b.Observe(j) }); n != 0 {
		t.Errorf("Observe into an existing bucket allocates %v times", n)
	}
}
