package server

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The wire encoder: compact JSON appended by hand into a pooled buffer,
// every integer through the block decimal kernel of decimal.go (see the
// package comment for the Content-Length and flush rule).

// wireSlack is the headroom every checked write leaves in a streaming
// buffer for the short constant bytes appended between checks ("]",
// `,"truncated":true`, "}\n", ...), so they never grow it.
const wireBufSize, wireSlack = 32 << 10, 32

var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, wireBufSize); return &b }}

// wire is one answer being encoded. With w nil it only appends to buf
// (appendJSON); with w set, a full buffer is flushed to w and the first
// failed Write ends the answer.
type wire struct {
	buf    []byte
	w      http.ResponseWriter
	status int
	sent   bool  // status line and headers written
	err    error // first failed Write
}

// send writes the whole response: status, then the JSON object and
// newline encode appends (a Result, an error body, a flush ack).
func send(w http.ResponseWriter, status int, encode func(e *wire)) {
	bp := wireBufs.Get().(*[]byte)
	e := wire{buf: (*bp)[:0], w: w, status: status}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	encode(&e)
	if !e.sent {
		w.Header().Set("Content-Length", strconv.Itoa(len(e.buf)))
	}
	e.flush()
	if cap(e.buf) == wireBufSize { // a buffer a long string grew stays out
		*bp = e.buf[:0]
		wireBufs.Put(bp)
	}
}

// flush writes the buffered bytes to w, headers first.
func (e *wire) flush() {
	if e.err != nil {
		return
	}
	if !e.sent {
		e.w.WriteHeader(e.status)
		e.sent = true
	}
	_, e.err = e.w.Write(e.buf)
	e.buf = e.buf[:0]
}

// reserve flushes a streaming buffer that lacks n bytes of room (plus
// wireSlack). It reports false once the answer has failed.
func (e *wire) reserve(n int) bool {
	if e.w != nil && len(e.buf)+n > wireBufSize-wireSlack {
		e.flush()
	}
	return e.err == nil
}

// ints appends vals as elements of an array that already holds *n of
// them: as many values as the buffer has room for at maxIntLen bytes
// each in one appendInts call, then, when streaming, a flush once not
// one more fits. It reports false once the answer has failed.
func (e *wire) ints(vals []int64, n *int) bool {
	for len(vals) > 0 {
		k := len(vals)
		if e.w != nil {
			if k = min(k, (wireBufSize-wireSlack-len(e.buf))/maxIntLen); k <= 0 {
				if e.flush(); e.err != nil {
					return false
				}
				continue
			}
		}
		if *n == 0 { // the array's first element takes no comma
			e.buf = appendInt(e.buf, vals[0])
			*n, vals, k = 1, vals[1:], k-1
		}
		e.buf = appendInts(e.buf, vals[:k])
		*n += k
		vals = vals[k:]
	}
	return true
}

func (e *wire) int(key string, v int64) {
	e.reserve(len(key) + maxIntLen)
	e.buf = appendInt(append(e.buf, key...), v)
}

// str appends key and s as a JSON string, which is at most six bytes
// per byte of s.
func (e *wire) str(key, s string) {
	e.reserve(len(key) + 6*len(s) + 2)
	e.buf = appendString(append(e.buf, key...), s)
}

// appendJSON appends what POST /sql answers for res to dst: keys in
// field order, "sum" exactly when op is sum, the optional ones when set.
func (res *Result) appendJSON(dst []byte) []byte {
	e := wire{buf: dst}
	res.encode(&e)
	return e.buf
}

// MarshalJSON is appendJSON, so json.Marshal(res) yields the wire bytes.
func (res *Result) MarshalJSON() ([]byte, error) { return res.appendJSON(nil), nil }

func (res *Result) encode(e *wire) {
	e.str(`{"op":`, res.Op)
	e.int(`,"count":`, res.Count)
	if res.Op == string(opSum) {
		e.int(`,"sum":`, res.Sum)
	}
	if res.Rows != nil {
		if e.buf = append(e.buf, `,"rows":`...); !res.Rows.encode(e) {
			return
		}
	}
	if len(res.Columns) > 0 {
		for i, c := range res.Columns {
			sep := ","
			if i == 0 {
				sep = `,"columns":[`
			}
			e.str(sep, c)
		}
		e.buf = append(e.buf, ']')
	}
	if len(res.Tuples) > 0 {
		e.buf = append(e.buf, `,"tuples":[`...)
		for i, t := range res.Tuples {
			if !e.reserve(2) {
				return
			}
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if e.buf = append(e.buf, '['); !e.ints(t, new(int)) {
				return
			}
			e.buf = append(e.buf, ']')
		}
		e.buf = append(e.buf, ']')
	}
	if res.Truncated {
		e.buf = append(e.buf, `,"truncated":true`...)
	}
	st := &res.Stats
	e.int(`,"stats":{"ReadBytes":`, st.ReadBytes)
	e.int(`,"WriteBytes":`, st.WriteBytes)
	e.int(`,"ResultCount":`, st.ResultCount)
	e.int(`,"Splits":`, int64(st.Splits))
	e.int(`,"Drops":`, int64(st.Drops))
	e.int(`,"Recodes":`, int64(st.Recodes))
	e.int(`,"DeltaReadBytes":`, st.DeltaReadBytes)
	e.int(`,"Merged":`, int64(st.Merged))
	e.int(`,"StorageBytes":`, st.StorageBytes)
	e.int(`,"CompressedBytes":`, st.CompressedBytes)
	e.buf = strconv.AppendBool(append(e.buf, `},"cached":`...), res.Cached)
	e.str(`,"fingerprint":`, res.Fingerprint)
	e.str(`,"tenant":`, res.Tenant)
	if res.Plan != "" {
		e.str(`,"plan":`, res.Plan)
	}
	e.buf = append(e.buf, "}\n"...)
}

func (b *errorBody) encode(e *wire) {
	e.str(`{"error":`, b.Error)
	if b.Offset != nil {
		e.int(`,"offset":`, int64(*b.Offset))
	}
	e.buf = append(e.buf, "}\n"...)
}

// appendString appends s as a JSON string exactly as encoding/json
// writes it: <, > and & escaped for HTML, U+2028/U+2029 escaped, every
// control byte escaped, and each invalid UTF-8 byte replaced by U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		switch {
		case c < ' ' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&':
			dst = append(dst, s[start:i]...)
			if k := strings.IndexByte("\b\f\n\r\t\"\\", s[i]); k >= 0 {
				dst = append(dst, '\\', "bfnrt\"\\"[k])
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
