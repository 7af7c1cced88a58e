package server

import (
	"encoding/json"
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	body := errorBody{Error: err.Error()}
	var se *sql.SyntaxError
	if errors.As(err, &se) {
		off := se.Offset
		body.Offset = &off
	}
	writeJSON(w, status, body)
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
	body, err := io.ReadAll(io.LimitReader(r.Body, maxStatementBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxStatementBytes {
		writeError(w, http.StatusRequestEntityTooLarge, errors.New("statement too large"))
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
	var out any = res
	if err == nil && q.Get("explain") != "" {
		var plan string
		plan, err = s.explain(tenant, src)
		out = struct {
			*Result
			Plan string `json:"plan"`
		}{res, plan}
	}
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, out)
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
	writeJSON(w, http.StatusOK, struct {
		Flushed bool  `json:"flushed"`
		Epoch   int64 `json:"epoch"`
	}{true, s.cache.Epoch()})
}
