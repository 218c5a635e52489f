package client

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/ws"
)

// scriptedPeer is a minimal server end: each accepted connection runs
// serve, then answers the client's close handshake.
func scriptedPeer(t *testing.T, serve func(conn *ws.Conn)) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := ws.Upgrade(w, r)
		if err != nil {
			t.Errorf("upgrade: %v", err)
			return
		}
		serve(conn)
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				break
			}
		}
		conn.Close()
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestResponseReachesWaiter pins the single-decode read loop's response
// leg: a response frame reaches the waiter registered under its token
// with status, reason and data intact.
func TestResponseReachesWaiter(t *testing.T) {
	addr := scriptedPeer(t, func(conn *ws.Conn) {
		for i := 0; i < 2; i++ {
			raw, err := conn.ReadText()
			if err != nil {
				t.Errorf("read request: %v", err)
				return
			}
			var req proto.Request
			if err := json.Unmarshal(raw, &req); err != nil {
				t.Errorf("decode request: %v", err)
				return
			}
			resp := proto.Response{Type: "response", Token: req.Token, Status: "ok",
				Data: json.RawMessage(`{"files":["a.go","b.go"],"n":2}`)}
			if req.Action == "fail" {
				resp = proto.Response{Type: "response", Token: req.Token, Status: "error",
					Reason: "no such thing", Data: json.RawMessage(`[1,2,3]`)}
			}
			msg, _ := json.Marshal(&resp)
			if err := conn.WriteText(msg); err != nil {
				t.Errorf("write response: %v", err)
				return
			}
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.roundTrip(&proto.Request{Type: "info"})
	if err != nil {
		t.Fatalf("ok request: %v", err)
	}
	if resp.Type != "response" || resp.Status != "ok" || resp.Reason != "" ||
		string(resp.Data) != `{"files":["a.go","b.go"],"n":2}` {
		t.Fatalf("ok response = %+v (data %s)", resp, resp.Data)
	}
	resp, err = c.roundTrip(&proto.Request{Type: "info", Action: "fail"})
	if err == nil || !strings.Contains(err.Error(), "no such thing") {
		t.Fatalf("error request: err = %v, want the reason", err)
	}
	if resp == nil || resp.Status != "error" || resp.Reason != "no such thing" || string(resp.Data) != `[1,2,3]` {
		t.Fatalf("error response = %+v", resp)
	}
	c.mu.Lock()
	left := len(c.waiting)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d waiters left after both responses", left)
	}
}

// TestEventsDecodeLikeProto pins the event leg: a JSON stop (with
// four-state, wide and unknown variables) and a control event are
// delivered exactly as json.Unmarshal into proto.Event decodes them.
func TestEventsDecodeLikeProto(t *testing.T) {
	stop := &core.StopEvent{
		Time: 42, File: "main.go", Line: 130, Col: 3, StepStop: true,
		Threads: []core.Thread{{
			BreakpointID: 7, Instance: "Top.u0",
			Locals: []core.Variable{
				{Name: "count", Value: 5, Width: 8, RTL: "tb.dut.u0.count"},
				{Name: "bus", Value: 0b1010, X: 0b0100, Width: 4, RTL: "tb.dut.u0.bus"},
				{Name: "gone", RTL: "tb.dut.u0.gone", Unknown: true},
			},
			Generator: []core.Variable{
				{Name: "wide", Value: 1, Width: 130, RTL: "tb.dut.u0.wide", Hi: []uint64{2, 3}, XHi: []uint64{0, 1}},
			},
		}},
	}
	frames := [][]byte{
		mustJSON(t, &proto.Event{Type: "stop", Seq: 9, Stop: stop, Emit: 12345}),
		mustJSON(t, &proto.Event{Type: "control", Controller: 3, Reason: "release", Peers: 2}),
	}
	addr := scriptedPeer(t, func(conn *ws.Conn) {
		for _, f := range frames {
			if err := conn.WriteText(f); err != nil {
				t.Errorf("write event: %v", err)
				return
			}
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, typ := range []string{"stop", "control"} {
		got, err := c.WaitEvent(typ, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var want proto.Event
		if err := json.Unmarshal(frames[i], &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("%s event:\n got %+v\nwant %+v", typ, *got, want)
		}
	}
	if c.Controller() != 3 {
		t.Fatalf("controller = %d after the control event, want 3", c.Controller())
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
