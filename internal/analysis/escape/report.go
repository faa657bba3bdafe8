package escape

import (
	"strings"

	"diversecast/internal/analysis/callgraph"
)

// ShortName compresses a call-graph node name for diagnostics by
// dropping the directory part of every package path:
// "(*diversecast/internal/core.incrementalSelector).applied" becomes
// "(*core.incrementalSelector).applied". Corpus packages with bare import
// paths pass through unchanged.
func ShortName(name string) string {
	var b strings.Builder
	word := make([]byte, 0, len(name))
	flush := func() {
		w := string(word)
		if i := strings.LastIndexByte(w, '/'); i >= 0 {
			w = w[i+1:]
		}
		b.WriteString(w)
		word = word[:0]
	}
	for i := 0; i < len(name); i++ {
		switch ch := name[i]; ch {
		case '(', ')', '*', ' ':
			flush()
			b.WriteByte(ch)
		default:
			word = append(word, ch)
		}
	}
	flush()
	return b.String()
}

// Via renders the call chain from the root to n (exclusive of the
// root, short names, " -> " separated); "" when the site is in the
// root itself.
func (r *Root) Via(n *callgraph.Node) string {
	chain := r.Chain(n)
	if len(chain) <= 1 {
		return ""
	}
	parts := make([]string, 0, len(chain)-1)
	for _, c := range chain[1:] {
		parts = append(parts, ShortName(c.Name))
	}
	return strings.Join(parts, " -> ")
}

// HotPackage reports whether a package path names one of the repo's
// hot packages — any path segment in {core, netcast, pool, obs}, so
// test corpora can opt in with a bare "core" import path.
func HotPackage(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		switch seg {
		case "core", "netcast", "pool", "obs":
			return true
		}
	}
	return false
}
