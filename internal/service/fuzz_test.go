package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzServiceRequest: the request decoding surface — JSON bodies,
// query parameters, the deadline header, and the light read-only
// routes — must never panic and must answer every malformed input with
// a typed 4xx error. The service must never leak an untyped failure to
// a client no matter what bytes arrive.
func FuzzServiceRequest(f *testing.F) {
	cfg := Config{RepoDir: f.TempDir()}
	svc, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	h, err := svc.Handler()
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint8(0), []byte(`{"app":"cg","procs":8}`), "app=cg&procs=8", "250")
	f.Add(uint8(1), []byte(`{"app":"cg","target":"B"}`), "app=&procs=-1", "")
	f.Add(uint8(2), []byte(`{`), "warm=2", "0")
	f.Add(uint8(3), []byte(`{"app":"cg","bogus":true}`), "warm=-1", "99999999999999999999")
	f.Add(uint8(4), []byte("PAS2PTR2 but not really"), "%zz", "-5")
	f.Add(uint8(5), []byte(`[1,2,3]`), "procs=abc", "abc")
	f.Add(uint8(6), []byte(`{"app":"cg"} trailing`), "app=cg", "1.5")
	f.Add(uint8(7), []byte{0x00, 0xff, 0xfe}, "", "\x00")
	f.Add(uint8(1), append([]byte("PAS2PTR1"), make([]byte, 40)...), "", "")

	f.Fuzz(func(t *testing.T, sel uint8, body []byte, rawQuery, deadline string) {
		// Decoder helpers first: every rejection must be a typed 4xx.
		for _, dst := range []any{new(SignRequest), new(PredictRequest)} {
			req := httptest.NewRequest(http.MethodPost, "/x", bytes.NewReader(body))
			if aerr := decodeJSON(req, dst); aerr != nil {
				if aerr.Status < 400 || aerr.Status > 499 || aerr.Code == "" {
					t.Fatalf("decodeJSON rejection not a typed 4xx: %+v", aerr)
				}
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/x", nil)
		if deadline != "" {
			// Header values with control bytes are not settable; skip those.
			func() {
				defer func() { recover() }() //nolint:errcheck
				req.Header.Set(DeadlineHeader, deadline)
			}()
		}
		if d, aerr := clientDeadline(req); aerr != nil {
			if aerr.Status != http.StatusBadRequest || aerr.Code != CodeBadRequest {
				t.Fatalf("clientDeadline rejection not typed 400: %+v", aerr)
			}
		} else if req.Header.Get(DeadlineHeader) != "" && d <= 0 {
			t.Fatalf("clientDeadline accepted %q as %v", deadline, d)
		}

		// Full routing layer on the cheap routes (lookup never runs the
		// pipeline; analyze rejects at the codec for non-tracefiles —
		// a fuzzer will not forge the whole-file CRC).
		var target string
		var method string
		var reqBody []byte
		switch sel % 4 {
		case 0:
			method, target = http.MethodGet, "/v1/lookup?"+rawQuery
		case 1:
			method, target, reqBody = http.MethodPost, "/v1/analyze?"+rawQuery, body
		case 2:
			method, target = http.MethodGet, "/v1/"+rawQuery
		case 3:
			method, target, reqBody = http.MethodPut, "/v1/lookup", body
		}
		hreq, herr := http.NewRequest(method, "http://svc"+target, bytes.NewReader(reqBody))
		if herr != nil {
			return // unparseable target: nothing reaches the server
		}
		// A tight per-request deadline bounds every exec: even an input
		// that reaches real work is abandoned at the 2 s mark.
		hreq.Header.Set(DeadlineHeader, "2000")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, hreq.WithContext(ctx))

		res := rec.Result()
		if res.StatusCode == http.StatusOK {
			return // e.g. /v1/ index or a genuinely valid request
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" {
			t.Fatalf("%s %s → untyped %d: %.200q", method, target, res.StatusCode, rec.Body.String())
		}
		if res.StatusCode >= 500 && e.Error.Code != CodeInternal &&
			e.Error.Code != CodeRepoCorrupt && e.Error.Code != CodeShed && e.Error.Code != CodeDraining {
			t.Fatalf("%s %s → unexpected 5xx %d code %q", method, target, res.StatusCode, e.Error.Code)
		}
	})
}
