package core

import (
	"fmt"

	"selforg/internal/domain"
	"selforg/internal/segment"
)

// Payloads calls f with the payload slice of every materialized segment
// s holds raw or Plain-encoded — the slices whose backing arrays the
// strategy keeps alive. Other encodings are skipped.
func Payloads(s Strategy, f func([]domain.Value)) {
	visit := func(sg *segment.Segment) {
		if sg.Virtual {
			return
		}
		if vals, ok := sg.BorrowValues(); ok {
			f(vals)
		}
	}
	switch s := s.(type) {
	case *Segmenter:
		l := s.List()
		for i := 0; i < l.Len(); i++ {
			visit(l.Seg(i))
		}
	case *Replicator:
		s.eng.Base().walk(func(n *node, _ int) { visit(n.seg) })
	default:
		panic(fmt.Sprintf("core: Payloads of %T", s))
	}
}
