package server

import (
	"errors"
	"io"
	"net/http"

	"selforg/internal/sql"
)

// maxStatementBytes bounds the /sql request body; the supported
// statement class is a single line, so anything larger is abuse.
const maxStatementBytes = 1 << 20

// errorBody is the JSON error envelope of every non-2xx answer.
type errorBody struct {
	Error string `json:"error"`
	// Offset is the byte position of a syntax error in the submitted
	// statement (present only for syntax errors).
	Offset *int `json:"offset,omitempty"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error()}
	var se *sql.SyntaxError
	if errors.As(err, &se) {
		off := se.Offset
		body.Offset = &off
	}
	send(w, status, body.encode)
}

// handleSQL is POST /sql: the statement in the body, ?tenant= routing,
// admission control in front of execution. A warm request costs one lex
// pass and a cache hit before it touches the column.
func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST a SQL statement"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStatementBytes))
	if errors.As(err, new(*http.MaxBytesError)) {
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("statement too large"))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release, ok := s.gate.acquire()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, errors.New("server saturated, retry later"))
		return
	}
	defer release()
	q := r.URL.Query()
	tenant, src := q.Get("tenant"), string(body)
	res, err := s.Exec(tenant, src)
	if err == nil && q.Get("explain") != "" {
		res.Plan, err = s.Explain(src)
	}
	switch {
	case err == nil:
		send(w, http.StatusOK, res.encode)
	case isClientError(err):
		writeError(w, http.StatusBadRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// handleFlush is POST /plans/flush: administrative plan-cache
// invalidation (the catalog-epoch bump exposed over the wire).
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST to flush"))
		return
	}
	s.InvalidatePlans()
	epoch := s.cache.Epoch()
	send(w, http.StatusOK, func(e *wire) { e.int(`{"flushed":true,"epoch":`, epoch); e.buf = append(e.buf, "}\n"...) })
}
