package labd_test

// Stream-robustness table tests for Client.Sweep: the NDJSON decoder must
// reject every protocol violation a broken server or transport can
// produce — duplicate or reordered index lines, truncated streams, a
// single line overflowing the 64 MiB scanner cap, a non-200 reply — and
// tolerate the one benign irregularity (blank lines).

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flywheel/internal/lab"
	"flywheel/internal/labd"
)

// cannedServer replies to every sweep with status and exactly body.
func cannedServer(t *testing.T, status int, body string) *labd.Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(status)
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	cl := labd.NewClient(ts.URL)
	// A canned server replays the same body on a resume, which would
	// misalign keys; these cases exercise the decoder, not resumption.
	cl.MaxResumes = -1
	return cl
}

func TestSweepStreamRobustness(t *testing.T) {
	twoJobs := labd.SweepRequest{Jobs: []lab.Job{
		{Workload: "a", MaxInstructions: 1000},
		{Workload: "b", MaxInstructions: 1000},
	}}
	line0 := `{"index":0,"key":"k0","result":{}}`
	line1 := `{"index":1,"key":"k1","result":{}}`

	cases := []struct {
		name    string
		body    string
		wantErr string // substring; empty = success expected
		status  int    // reply status
	}{
		{"well-formed", line0 + "\n" + line1 + "\n", "", http.StatusOK},
		{"empty lines tolerated", "\n" + line0 + "\n   \n" + line1 + "\n\n", "", http.StatusOK},
		{"duplicate index", line0 + "\n" + line0 + "\n", "out of order", http.StatusOK},
		{"out of order", line1 + "\n" + line0 + "\n", "out of order", http.StatusOK},
		{"truncated after one result", line0 + "\n", "truncated", http.StatusOK},
		{"empty stream", "", "truncated", http.StatusOK},
		{"extra trailing line", line0 + "\n" + line1 + "\n" + `{"index":2,"key":"k2","result":{}}` + "\n", "overran", http.StatusOK},
		{"garbage line", line0 + "\nnot json\n", "bad line", http.StatusOK},
		{"multi-MiB line under the cap",
			`{"index":0,"key":"k0","pad":"` + strings.Repeat("a", 3<<20) + `","result":{}}` + "\n" + line1 + "\n", "", http.StatusOK},
		{"oversized single line at the 64 MiB cap",
			`{"index":0,"key":"` + strings.Repeat("a", 64<<20) + `"}` + "\n", "stream", http.StatusOK},
		{"503 reply", "shedding load", "503", http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client := cannedServer(t, tc.status, tc.body)
			if tc.status != http.StatusOK {
				// Resumption stays on to prove a non-200 reply never
				// triggers it: the server is wrong, not the wire.
				client.MaxResumes = 0
			}
			lines, err := client.Sweep(twoJobs)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(lines) != 2 || lines[0].Key != "k0" || lines[1].Key != "k1" {
					t.Fatalf("bad lines: %+v", lines)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
			if client.Resumes() != 0 {
				t.Fatalf("resumed %d times after a terminal error", client.Resumes())
			}
		})
	}
}

// TestSweepJobErrorStillReturnsLines: a job-level error line yields both
// the full line slice and the error, as lab.Run does: callers keep every
// result of a batch in which one job failed.
func TestSweepJobErrorStillReturnsLines(t *testing.T) {
	body := `{"index":0,"key":"k0","result":{}}` + "\n" +
		`{"index":1,"key":"k1","error":"boom"}` + "\n"
	client := cannedServer(t, http.StatusOK, body)
	lines, err := client.Sweep(labd.SweepRequest{Jobs: []lab.Job{{Workload: "a"}, {Workload: "b"}}})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the job error", err)
	}
	if len(lines) != 2 || lines[1].Error != "boom" {
		t.Fatalf("lines = %+v", lines)
	}
}
