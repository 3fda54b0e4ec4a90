package session

// Unit tests for the session-log record: ExportRecord validation (the
// truncation/duplication guard) across its three forms, and Extend, the
// append rule every holder of a log applies. The cluster layer's fuzz
// and failover tests cover the HTTP surface; these pin the pure logic.

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
)

func validRecord() *ExportRecord {
	return &ExportRecord{
		SessionID: "s-abc",
		BaseHash:  "deadbeef",
		Version:   2,
		Create:    json.RawMessage(`{"op":"create"}`),
		Deltas:    []json.RawMessage{json.RawMessage(`{"deltas":[1]}`), json.RawMessage(`{"deltas":[2]}`)},
	}
}

func TestExportRecordValidate(t *testing.T) {
	suffix := validRecord()
	suffix.Create = nil
	closed := &ExportRecord{SessionID: "s-abc", BaseHash: "deadbeef", Closed: true}
	for _, rec := range []*ExportRecord{validRecord(), suffix, closed} {
		if err := rec.Validate(); err != nil {
			t.Fatalf("valid record %+v rejected: %v", rec, err)
		}
	}
	cases := []struct {
		name string
		mut  func(*ExportRecord)
		want string
	}{
		{"missing session id", func(r *ExportRecord) { r.SessionID = "" }, "missing session_id"},
		{"suffix without deltas", func(r *ExportRecord) { r.Create, r.Deltas = nil, nil }, "carries no deltas"},
		{"suffix before version 0", func(r *ExportRecord) { r.Create, r.Version = nil, 1 }, "start before version 0"},
		{"close with ops", func(r *ExportRecord) { r.Closed = true }, "a close carries no"},
		{"create not JSON", func(r *ExportRecord) { r.Create = json.RawMessage(`{"op":`) }, "not valid JSON"},
		{"negative version", func(r *ExportRecord) { r.Version = -1 }, "negative version"},
		{"truncated log", func(r *ExportRecord) { r.Deltas = r.Deltas[:1] }, "truncated or duplicated"},
		{"duplicated log", func(r *ExportRecord) { r.Deltas = append(r.Deltas, r.Deltas[1]) }, "truncated or duplicated"},
		{"delta not JSON", func(r *ExportRecord) { r.Deltas[1] = json.RawMessage(`{`) }, "not valid JSON"},
		{"empty delta", func(r *ExportRecord) { r.Deltas[0] = nil }, "not valid JSON"},
	}
	for _, tc := range cases {
		rec := validRecord()
		tc.mut(rec)
		err := rec.Validate()
		if err == nil {
			t.Fatalf("%s: validated", tc.name)
		}
		var ce *ClientError
		if !errors.As(err, &ce) || ce.Status != http.StatusBadRequest {
			t.Fatalf("%s: want 400 ClientError, got %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestExportRecordJSONRoundTrip(t *testing.T) {
	rec := validRecord()
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back ExportRecord
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if back.SessionID != rec.SessionID || back.BaseHash != rec.BaseHash ||
		back.Version != rec.Version || len(back.Deltas) != len(rec.Deltas) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped record invalid: %v", err)
	}
}

func TestExportRecordExtend(t *testing.T) {
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	create := raw(`{"op":"create"}`)
	d := []json.RawMessage{raw(`{"deltas":[0]}`), raw(`{"deltas":[1]}`), raw(`{"deltas":[2]}`)}
	full := func(v int) *ExportRecord {
		return &ExportRecord{SessionID: "s", BaseHash: "h", Version: int64(v), Create: create, Deltas: d[:v]}
	}
	suffix := func(from, to int) *ExportRecord {
		return &ExportRecord{SessionID: "s", BaseHash: "h", Version: int64(to), Deltas: d[from:to]}
	}
	cases := []struct {
		name      string
		held, add *ExportRecord
		want      *ExportRecord // nil: no log held afterwards
		gap       bool
	}{
		{"full into absent log", nil, full(1), full(1), false},
		{"suffix into absent log", nil, suffix(0, 1), nil, true},
		{"close of absent log", nil, &ExportRecord{SessionID: "s", Closed: true}, nil, false},
		{"contiguous suffix", full(1), suffix(1, 2), full(2), false},
		{"two-delta suffix", full(1), suffix(1, 3), full(3), false},
		{"duplicate suffix", full(2), suffix(1, 2), full(2), false},
		{"duplicate full", full(2), full(1), full(2), false},
		{"gap", full(1), suffix(2, 3), full(1), true},
		{"overlapping suffix", full(2), suffix(1, 3), full(2), true},
		{"full replaces older log", full(1), full(3), full(3), false},
		{"close drops log", full(2), &ExportRecord{SessionID: "s", Closed: true}, nil, false},
	}
	for _, tc := range cases {
		got, err := tc.held.Extend(tc.add)
		var ce *ClientError
		if tc.gap != (err != nil) || (err != nil && (!errors.As(err, &ce) || ce.Status != http.StatusConflict)) {
			t.Fatalf("%s: err %v, want gap %v as a 409", tc.name, err, tc.gap)
		}
		if tc.gap && !strings.Contains(err.Error(), "gap") {
			t.Fatalf("%s: error %q does not name the gap", tc.name, err)
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(tc.want)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s: log\n%s\nwant\n%s", tc.name, gotJSON, wantJSON)
		}
		if got != nil {
			if err := got.Validate(); err != nil || got.Create == nil {
				t.Fatalf("%s: held log is not a full log: %+v (%v)", tc.name, got, err)
			}
		}
	}

	// Extend is pure: a full log is stored as a copy, and extending a log
	// leaves the log it extended as it was.
	add := &ExportRecord{SessionID: "s", Version: 1, Create: raw(`{"op":"create"}`), Deltas: []json.RawMessage{raw(`{"deltas":[0]}`)}}
	held, err := (*ExportRecord)(nil).Extend(add)
	if err != nil {
		t.Fatal(err)
	}
	add.Create[2], add.Deltas[0][2] = 'X', 'X'
	if string(held.Create) != `{"op":"create"}` || string(held.Deltas[0]) != `{"deltas":[0]}` {
		t.Fatalf("stored log aliases the record it was built from: %s %s", held.Create, held.Deltas[0])
	}
	next, err := held.Extend(suffix(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if held.Version != 1 || len(held.Deltas) != 1 || next.Version != 2 || len(next.Deltas) != 2 {
		t.Fatalf("extending changed the held log: held v%d/%d, next v%d/%d",
			held.Version, len(held.Deltas), next.Version, len(next.Deltas))
	}
}
