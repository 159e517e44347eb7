package ibp

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"lonviz/internal/obs"
)

// FuzzLineTokens checks the request-line token stripping: a parsed
// deadline is never negative, the kept fields are a prefix of the line's
// fields, and every stripped field is a well-formed token of the kind its
// position allows (tag=, then deadline=, then trace=, in wire order).
func FuzzLineTokens(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string) {
		all := parseFields(line)
		for _, pipelined := range []bool{false, true} {
			r, ok := parseRequest(line, pipelined)
			if r.hasBudget && r.budget < 0 {
				t.Fatalf("%q: negative deadline budget %v", line, r.budget)
			}
			if ok != (r.tagged || !pipelined) || (r.tagged && !pipelined) {
				t.Fatalf("%q pipelined=%v: ok=%v tagged=%v", line, pipelined, ok, r.tagged)
			}
			if len(r.f) > len(all) || !slices.Equal(r.f, all[:len(r.f)]) {
				t.Fatalf("%q: kept fields %q are not a prefix of %q", line, r.f, all)
			}
			stripped := all[len(r.f):]
			var kinds []string
			if r.tagged {
				kinds = append(kinds, "tag")
			}
			if r.hasBudget {
				kinds = append(kinds, "deadline")
			}
			if r.traced {
				kinds = append(kinds, "trace")
			}
			if len(stripped) != len(kinds) {
				t.Fatalf("%q: stripped %q but reported tokens %v", line, stripped, kinds)
			}
			for i, kind := range kinds {
				field := stripped[i]
				switch kind {
				case "tag":
					tag, err := strconv.ParseUint(strings.TrimPrefix(field, tagPrefix), 10, 64)
					if !strings.HasPrefix(field, tagPrefix) || err != nil || tag != r.tag {
						t.Fatalf("%q: stripped %q as tag %d", line, field, r.tag)
					}
				case "deadline":
					if d, ok := obs.ParseDeadlineToken(field); !ok || d != r.budget {
						t.Fatalf("%q: stripped %q as deadline %v", line, field, r.budget)
					}
				case "trace":
					if tc, ok := obs.ParseTraceToken(field); !ok || tc != r.tc {
						t.Fatalf("%q: stripped %q as trace %v", line, field, r.tc)
					}
				}
			}
		}
	})
}
