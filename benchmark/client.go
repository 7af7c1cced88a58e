package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// reply is what the benchmark keeps of one JSON answer. Rows are folded
// into counts and sums by parity while they are scanned, so a 40 000-row
// answer costs the client one pass and no slice.
type reply struct {
	count     int64
	sum       int64
	truncated bool

	nrows          int
	rowCnt, rowSum [2]int64 // by parity of the value
	rowMin, rowMax int64
}

// parseReply scans the JSON envelope of a /sql answer. It is a plain
// JSON walk over the top-level object — indifferent to key order,
// indentation and keys it does not know — so that a later change to the
// envelope's formatting does not break the benchmark, and much cheaper
// than encoding/json on the client's share of the two cores.
func parseReply(b []byte, r *reply) error {
	*r = reply{}
	p := jscan{b: b}
	return p.object(func(key []byte) error {
		switch string(key) {
		case "count":
			return p.int(&r.count)
		case "sum":
			return p.int(&r.sum)
		case "truncated":
			return p.boolean(&r.truncated)
		case "rows":
			return p.rows(r)
		default:
			return p.skip()
		}
	})
}

// jscan is a minimal JSON reader over a byte slice.
type jscan struct {
	b []byte
	i int
}

var errJSON = errors.New("malformed JSON reply")

func (p *jscan) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\n', '\t', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *jscan) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str reads a string value and returns its raw bytes (escapes are left
// undecoded: the keys and values compared here have none).
func (p *jscan) str() ([]byte, error) {
	if !p.eat('"') {
		return nil, errJSON
	}
	start := p.i
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '\\':
			p.i += 2
		case '"':
			s := p.b[start:p.i]
			p.i++
			return s, nil
		default:
			p.i++
		}
	}
	return nil, errJSON
}

func (p *jscan) int(dst *int64) error {
	p.ws()
	start := p.i
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	var v int64
	digits := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		v = v*10 + int64(p.b[p.i]-'0')
		p.i++
	}
	if p.i == digits {
		return errJSON
	}
	if p.b[start] == '-' {
		v = -v
	}
	*dst = v
	return nil
}

func (p *jscan) boolean(dst *bool) error {
	p.ws()
	switch {
	case bytes.HasPrefix(p.b[p.i:], []byte("true")):
		*dst, p.i = true, p.i+4
	case bytes.HasPrefix(p.b[p.i:], []byte("false")):
		*dst, p.i = false, p.i+5
	default:
		return errJSON
	}
	return nil
}

// object walks one object, calling field with each key; field must
// consume the value.
func (p *jscan) object(field func(key []byte) error) error {
	if !p.eat('{') {
		return errJSON
	}
	if p.eat('}') {
		return nil
	}
	for {
		key, err := p.str()
		if err != nil {
			return err
		}
		if !p.eat(':') {
			return errJSON
		}
		if err := field(key); err != nil {
			return err
		}
		if p.eat(',') {
			continue
		}
		if p.eat('}') {
			return nil
		}
		return errJSON
	}
}

// rows folds an array of integers into the reply.
func (p *jscan) rows(r *reply) error {
	if !p.eat('[') {
		return errJSON
	}
	if p.eat(']') {
		return nil
	}
	for {
		var v int64
		if err := p.int(&v); err != nil {
			return err
		}
		if r.nrows == 0 || v < r.rowMin {
			r.rowMin = v
		}
		if r.nrows == 0 || v > r.rowMax {
			r.rowMax = v
		}
		r.nrows++
		r.rowCnt[v&1]++
		r.rowSum[v&1] += v
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return nil
		}
		return errJSON
	}
}

// skip consumes any one value.
func (p *jscan) skip() error {
	p.ws()
	if p.i >= len(p.b) {
		return errJSON
	}
	switch c := p.b[p.i]; {
	case c == '"':
		_, err := p.str()
		return err
	case c == '{':
		return p.object(func([]byte) error { return p.skip() })
	case c == '[':
		p.i++
		if p.eat(']') {
			return nil
		}
		for {
			if err := p.skip(); err != nil {
				return err
			}
			if p.eat(',') {
				continue
			}
			if p.eat(']') {
				return nil
			}
			return errJSON
		}
	default: // number, true, false, null
		start := p.i
		for p.i < len(p.b) {
			switch p.b[p.i] {
			case ',', '}', ']', ' ', '\n', '\t', '\r':
				if p.i == start {
					return errJSON
				}
				return nil
			}
			p.i++
		}
		return nil
	}
}

// sqlClient is one closed-loop client on one keep-alive connection: its
// transport may hold a single connection to the server, so two clients
// are two connections.
type sqlClient struct {
	hc      *http.Client
	url     string
	stmtBuf []byte
	body    []byte
	reqID   string // value of the X-Bench-Request header, traced runs only
}

func newSQLClient(addr string) *sqlClient {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &sqlClient{
		hc:  &http.Client{Transport: tr, Timeout: 60 * time.Second},
		url: "http://" + addr + "/sql",
	}
}

func (c *sqlClient) close() { c.hc.CloseIdleConnections() }

// requestHeader carries the request identifier to the tracing middleware.
const requestHeader = "X-Bench-Request"

// post sends one statement and reads the whole answer. The returned body
// aliases the client's buffer and is valid until the next post.
func (c *sqlClient) post(s stmt) (status int, body []byte, err error) {
	c.stmtBuf = s.appendSQL(c.stmtBuf[:0])
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.stmtBuf))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "text/plain")
	if c.reqID != "" {
		req.Header.Set(requestHeader, c.reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.body, err = readAllInto(c.body[:0], resp.Body)
	return resp.StatusCode, c.body, err
}

// readAllInto is io.ReadAll into a reused buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// exchange posts a statement, parses the answer and checks it. It returns
// the time the client waited for the complete answer, the HTTP status, and
// "" or the reason the statement counts as failed.
func (c *sqlClient) exchange(s stmt, chk checker, r *reply) (wait time.Duration, status int, fail string) {
	t0 := time.Now()
	status, body, err := c.post(s)
	wait = time.Since(t0)
	switch {
	case err != nil:
		return wait, status, "transport: " + err.Error()
	case status != http.StatusOK:
		return wait, status, fmt.Sprintf("%s: HTTP %d %s", s.sql(), status, truncate(body, 120))
	}
	if err := parseReply(body, r); err != nil {
		return wait, status, fmt.Sprintf("%s: %v: %s", s.sql(), err, truncate(body, 120))
	}
	return wait, status, chk.check(s, r)
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return strconv.Quote(string(b[:n])) + "..."
	}
	return strconv.Quote(string(b))
}
