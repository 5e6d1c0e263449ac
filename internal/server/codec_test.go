package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"schedsearch/internal/job"
	"schedsearch/internal/wire"
)

// jobOf is the reference mapping of a decoded wire.SubmitRequest to the
// job the backend admits.
func jobOf(req wire.SubmitRequest) job.Job {
	return job.Job{ID: req.ID, Nodes: req.Nodes, Runtime: req.RuntimeS, Request: req.RequestS, User: req.User}
}

// checkDecode holds wire.DecodeJob and wire.DecodeJobs to json.Unmarshal
// into a wire.SubmitRequest and a []wire.SubmitRequest: the same accept
// or reject, the same jobs on accept, and a rejection that names its
// byte offset. It reports whether the single and the array shape
// accepted. The body is a load answer too, for checkLoad.
func checkDecode(t *testing.T, body []byte) (one, many bool) {
	t.Helper()
	checkLoad(t, body)
	var req wire.SubmitRequest
	werr := json.Unmarshal(body, &req)
	j, err := wire.DecodeJob(body)
	if (err == nil) != (werr == nil) {
		t.Fatalf("single %q: decoder err %v, encoding/json err %v", body, err, werr)
	}
	if err == nil && j != jobOf(req) {
		t.Fatalf("single %q: decoded %+v, encoding/json %+v", body, j, jobOf(req))
	}
	if err != nil && !strings.Contains(err.Error(), " at offset ") {
		t.Fatalf("single %q: error %q names no offset", body, err)
	}

	var reqs []wire.SubmitRequest
	werr = json.Unmarshal(body, &reqs)
	// A dirty buffer: decodeJobs must not let a reused job leak through.
	dirty := []job.Job{{ID: 9, Nodes: 9, Runtime: 9, Request: 9, User: 9, Submit: 9}}
	jobs, merr := wire.DecodeJobs(dirty, body)
	if (merr == nil) != (werr == nil) {
		t.Fatalf("array %q: decoder err %v, encoding/json err %v", body, merr, werr)
	}
	if merr == nil {
		if len(jobs) != len(reqs) {
			t.Fatalf("array %q: decoded %d jobs, encoding/json %d", body, len(jobs), len(reqs))
		}
		for i := range reqs {
			if jobs[i] != jobOf(reqs[i]) {
				t.Fatalf("array %q item %d: decoded %+v, encoding/json %+v", body, i, jobs[i], jobOf(reqs[i]))
			}
		}
	}
	if merr != nil && !strings.Contains(merr.Error(), " at offset ") {
		t.Fatalf("array %q: error %q names no offset", body, merr)
	}
	return err == nil, merr == nil
}

// nest wraps inner in depth arrays under an unknown key of one object.
func nest(depth int, inner string) string {
	return `{"x":` + strings.Repeat("[", depth) + inner + strings.Repeat("]", depth) + `}`
}

// decodeCases are the decoder's easy-to-get-wrong semantics, one case
// each, with the outcome encoding/json gives them: whether the single
// and the array shape accept, and the first job decoded. checkDecode
// also decodes each as a load answer, which must agree with
// json.Unmarshal too.
var decodeCases = []struct {
	name      string
	body      string
	one, many bool
	first     job.Job
}{
	{"exact keys", `{"id":3,"nodes":4,"runtime_s":60,"request_s":90,"user":7}`, true, false, job.Job{ID: 3, Nodes: 4, Runtime: 60, Request: 90, User: 7}},
	{"upper-case key", `[{"NODES":4}]`, false, true, job.Job{Nodes: 4}},
	{"mixed-case key", `[{"Runtime_S":60}]`, false, true, job.Job{Runtime: 60}},
	{"long s folds to s", "[{\"runtime_\u017f\":60,\"request_\\u017f\":90}]", false, true, job.Job{Runtime: 60, Request: 90}},
	{"Kelvin sign names no field", `[{"\u212a":5,"nodes":1}]`, false, true, job.Job{Nodes: 1}},
	{"escaped key", `[{"\u006eodes":4,"us\u0065r":2}]`, false, true, job.Job{Nodes: 4, User: 2}},
	{"half a surrogate in a key", `[{"nodes\ud800":4}]`, false, true, job.Job{}},
	{"duplicate key keeps the last", `[{"nodes":1,"nodes":2}]`, false, true, job.Job{Nodes: 2}},
	{"duplicate folded key keeps the last", `[{"nodes":1,"NODES":2}]`, false, true, job.Job{Nodes: 2}},
	{"unknown keys of every type", `[{"a":"s\n","b":1.5e-3,"c":true,"d":false,"e":null,"f":[1,{"g":[]}],"h":{"i":{}},"nodes":3}]`, false, true, job.Job{Nodes: 3}},
	{"null leaves a field", `[{"nodes":4,"nodes":null}]`, false, true, job.Job{Nodes: 4}},
	{"null item is a zero job", `[null,{"nodes":1}]`, false, true, job.Job{}},
	{"null body", `null`, true, true, job.Job{}},
	{"negative zero", `{"nodes":-0}`, true, false, job.Job{}},
	{"int64 edges", `{"runtime_s":9223372036854775807,"request_s":-9223372036854775808}`, true, false, job.Job{Runtime: 1<<63 - 1, Request: -1 << 63}},
	{"fraction", `{"nodes":1.0}`, false, false, job.Job{}},
	{"exponent", `{"nodes":1e3}`, false, false, job.Job{}},
	{"string for an int", `{"nodes":"1"}`, false, false, job.Job{}},
	{"bool for an int", `{"nodes":true}`, false, false, job.Job{}},
	{"object for an int", `{"nodes":{}}`, false, false, job.Job{}},
	{"array for an int", `{"nodes":[]}`, false, false, job.Job{}},
	{"above int64", `{"nodes":9223372036854775808}`, false, false, job.Job{}},
	{"below int64", `{"runtime_s":-9223372036854775809}`, false, false, job.Job{}},
	{"twenty digits", `{"runtime_s":10000000000000000000}`, false, false, job.Job{}},
	{"object for the array", `{"nodes":1}`, true, false, job.Job{Nodes: 1}},
	{"array for the object", `[{"nodes":1}]`, false, true, job.Job{Nodes: 1}},
	{"string item", `["x"]`, false, false, job.Job{}},
	{"control byte in a string", "[{\"a\":\"x\x01\"}]", false, false, job.Job{}},
	{"control byte in a key", "[{\"no\tdes\":1}]", false, false, job.Job{}},
	{"bad escape", `[{"a":"\x"}]`, false, false, job.Job{}},
	{"short unicode escape", `[{"a":"\u12"}]`, false, false, job.Job{}},
	{"leading zero", `{"nodes":01}`, false, false, job.Job{}},
	{"leading zero in a skipped value", `{"a":-01}`, false, false, job.Job{}},
	{"trailing data", `{"nodes":1} {}`, false, false, job.Job{}},
	{"trailing data after the array", `[]x`, false, false, job.Job{}},
	{"trailing whitespace", " [{\"nodes\":1}]\r\n\t ", false, true, job.Job{Nodes: 1}},
	{"invalid UTF-8 in a string", "[{\"a\":\"\xff\xfe\",\"nodes\":2}]", false, true, job.Job{Nodes: 2}},
	{"empty body", ``, false, false, job.Job{}},
	{"body ends at a field's value", `{"nodes":`, false, false, job.Job{}},
	{"body ends at an unknown key's value", `[{"x": `, false, false, job.Job{}},
	{"body ends in a minus sign", `{"x":-`, false, false, job.Job{}},
	{"byte-order mark", "\xef\xbb\xbf{}", false, false, job.Job{}},
	{"depth 10000 in an object", nest(10000-1, ""), true, false, job.Job{}},
	{"depth 10001 in an object", nest(10000, ""), false, false, job.Job{}},
	{"depth 10000 in an array", "[" + nest(10000-2, "") + "]", false, true, job.Job{}},
	{"depth 10001 in an array", "[" + nest(10000-1, "") + "]", false, false, job.Job{}},
	{"load answer without next_id", `{"capacity":128,"free_nodes":64,"now_s":10,"stable_until_s":99}`, true, false, job.Job{}},
}

// TestDecodeSemantics: each case decodes as encoding/json decodes it,
// with the outcome the case names.
func TestDecodeSemantics(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			one, many := checkDecode(t, []byte(tc.body))
			if one != tc.one || many != tc.many {
				t.Fatalf("accepted single %v, array %v; want %v, %v", one, many, tc.one, tc.many)
			}
			var got job.Job
			switch {
			case one:
				got, _ = wire.DecodeJob([]byte(tc.body))
			case many:
				if jobs, _ := wire.DecodeJobs(nil, []byte(tc.body)); len(jobs) > 0 {
					got = jobs[0]
				}
			}
			if got != tc.first {
				t.Fatalf("first job %+v, want %+v", got, tc.first)
			}
		})
	}
}

// bodyGen writes random submit bodies: mostly well-formed ones built
// from the keys and values a decoder gets wrong, some with a byte
// dropped, doubled or replaced.
type bodyGen struct{ rng *rand.Rand }

var (
	genKeys = []string{`"id"`, `"nodes"`, `"runtime_s"`, `"request_s"`, `"user"`, `"ID"`, `"Nodes"`, `"RUNTIME_S"`,
		"\"runtime_\u017f\"", `"\u0075ser"`, `"\u212a"`, `"x"`, `""`, `"nodes\u0000"`, `"\ud83d\ude00"`, `"\ud800"`,
		`"capacity"`, `"NEXT_ID"`, `"now_s"`, `"queued_node_s\u0065c"`}
	genInts    = []string{"0", "-0", "1", "-1", "64", "3600", "9223372036854775807", "-9223372036854775808"}
	genBadInts = []string{"9223372036854775808", "-9223372036854775809", "1.0", "1e3", "-", "01", "1.", "2E-1"}
	genScalars = []string{`null`, `true`, `false`, `"s"`, `"\"\\\/\b\f\n\r\t\u00e9"`, "\"\xff\"", `""`, `-0.5e+10`}
)

func (g bodyGen) pick(s []string) string { return s[g.rng.Intn(len(s))] }

// int is an integer field's value, one time in ten not an int64.
func (g bodyGen) int() string {
	if g.rng.Intn(10) == 0 {
		return g.pick(genBadInts)
	}
	return g.pick(genInts)
}

func (g bodyGen) value(b *strings.Builder, depth int) {
	switch n := g.rng.Intn(10); {
	case n < 4:
		b.WriteString(g.int())
	case n < 7 || depth > 3:
		b.WriteString(g.pick(genScalars))
	case n < 8:
		b.WriteByte('[')
		for i := g.rng.Intn(3); i > 0; i-- {
			g.value(b, depth+1)
			if i > 1 {
				b.WriteByte(',')
			}
		}
		b.WriteByte(']')
	default:
		g.object(b, depth+1)
	}
}

func (g bodyGen) object(b *strings.Builder, depth int) {
	b.WriteByte('{')
	for i := g.rng.Intn(7); i > 0; i-- {
		b.WriteString(g.pick(genKeys))
		b.WriteString(g.pick([]string{":", " : "}))
		if g.rng.Intn(3) == 0 {
			g.value(b, depth)
		} else {
			b.WriteString(g.int())
		}
		if i > 1 {
			b.WriteByte(',')
		}
	}
	b.WriteByte('}')
}

func (g bodyGen) body() []byte {
	var b strings.Builder
	switch g.rng.Intn(4) {
	case 0:
		g.object(&b, 0)
	case 1:
		g.value(&b, 0)
	default:
		b.WriteByte('[')
		for i := g.rng.Intn(5); i > 0; i-- {
			if g.rng.Intn(8) == 0 {
				b.WriteString("null")
			} else {
				g.object(&b, 1)
			}
			if i > 1 {
				b.WriteByte(',')
			}
		}
		b.WriteByte(']')
	}
	out := []byte(b.String())
	if len(out) > 0 && g.rng.Intn(4) == 0 {
		i := g.rng.Intn(len(out))
		switch g.rng.Intn(3) {
		case 0:
			out = append(out[:i], out[i+1:]...)
		case 1:
			out = append(out[:i+1], out[i:]...)
		default:
			out[i] = "{}[],:\"\\ 0-.e\x00"[g.rng.Intn(14)]
		}
	}
	return out
}

// TestDecodeMatchesUnmarshal runs the differential over random bodies.
func TestDecodeMatchesUnmarshal(t *testing.T) {
	g := bodyGen{rng: rand.New(rand.NewSource(42))}
	accepted := 0
	for range 20000 {
		if one, many := checkDecode(t, g.body()); one || many {
			accepted++
		}
	}
	if accepted < 5000 {
		t.Fatalf("only %d of 20000 random bodies decode: the differential barely covers acceptance", accepted)
	}
}

// writeJSONBytes is the reference reply: what writeJSON writes for v.
func writeJSONBytes(v any) []byte {
	w := httptest.NewRecorder()
	writeJSON(w, 200, v)
	return w.Body.Bytes()
}

// checkBatchReply holds appendBatchResponse byte-equal to writeJSON.
func checkBatchReply(t *testing.T, resp *BatchResponse) {
	t.Helper()
	got := appendBatchResponse(nil, resp)
	if want := writeJSONBytes(resp); !bytes.Equal(got, want) {
		t.Fatalf("%+v:\nappender %q\nwriteJSON %q", resp, got, want)
	}
}

// TestBatchReplyMatchesWriteJSON: the appender writes writeJSON's
// bytes over random replies, their strings drawn from what an escaper
// gets wrong.
func TestBatchReplyMatchesWriteJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pieces := []string{"", "a", "<", ">", "&", "\u2028", "\u2029", "\x00", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
		`"`, `\`, "\xff", "\xe2\x80", "\xc0\xaf", "\u00e9", "\u65e5\u672c", "\U0001f600", "user 7: quota exceeded"}
	str := func() string {
		var b strings.Builder
		for i := rng.Intn(5); i > 0; i-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	num := func() int {
		return []int{0, 1, -1, 201, 400, 1 << 62, -1 << 63}[rng.Intn(7)]
	}
	for range 20000 {
		resp := BatchResponse{Accepted: num(), Rejected: num()}
		switch n := rng.Intn(6); n {
		case 0:
		case 1:
			resp.Items = []BatchItemResult{}
		default:
			resp.Items = make([]BatchItemResult, n-1)
			for i := range resp.Items {
				resp.Items[i] = BatchItemResult{Index: num(), ID: num(), Status: num(), Code: str(), Error: str()}
			}
		}
		checkBatchReply(t, &resp)
	}
}

// submitSeeds are FuzzBatchSubmit's seeds and the semantics cases.
func submitSeeds() []string {
	seeds := []string{
		`[{"nodes":4,"runtime_s":3600}]`,
		`[{"nodes":1,"runtime_s":60},{"nodes":0,"runtime_s":60}]`,
		`[{"id":5,"nodes":2,"runtime_s":600},{"id":5,"nodes":2,"runtime_s":600}]`,
		`[{"id":-1,"nodes":1,"runtime_s":60}]`,
		`[]`,
		`[{}]`,
		`[null]`,
		`["x"]`,
		`[{"nodes":4,`,
		`{"nodes":4,"runtime_s":3600}`,
		`   [ {"nodes":1,"runtime_s":1} ]`,
		`[[{"nodes":1}]]`,
		`[{"nodes":1,"runtime_s":60,"user":-3}]`,
		`[{"nodes":1,"runtime_s":-60}]`,
		`[{"nodes":99999999,"runtime_s":60}]`,
		`[{"nodes":1,"runtime_s":9223372036854775807}]`,
		"[" + strings.Repeat(`{"nodes":1,"runtime_s":60},`, 64) + `{"nodes":1,"runtime_s":60}]`,
		"[" + strings.Repeat(`{},`, 5000) + `{}]`,
	}
	for _, tc := range decodeCases {
		seeds = append(seeds, tc.body)
	}
	return seeds
}

// FuzzSubmitDecode: on any body both decoders agree with json.Unmarshal,
// and a reply carrying the body's bytes as its strings is writeJSON's.
func FuzzSubmitDecode(f *testing.F) {
	for _, s := range submitSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
		half := string(body[len(body)/2:])
		checkBatchReply(t, &BatchResponse{Accepted: len(body), Rejected: -len(half), Items: []BatchItemResult{
			{Index: 0, ID: len(half), Status: 201},
			{Index: 1, Status: 400, Code: string(body), Error: half},
		}})
	})
}

// TestSubmitBatchAllocations pins the batch codec's allocations at 0:
// decoding a 32-item body into reused jobs and appending its reply into
// a reused buffer allocate nothing, so reflection (which allocates per
// value) cannot come back unseen.
func TestSubmitBatchAllocations(t *testing.T) {
	var b strings.Builder
	b.WriteByte('[')
	for i := range 32 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"nodes":%d,"runtime_s":%d,"request_s":%d,"user":%d}`, 100000+i, 1+i%64, 3600+i, 7200+i, i%17)
	}
	b.WriteByte(']')
	body := []byte(b.String())
	sc := new(batchScratch)
	var out []byte
	resp := BatchResponse{Accepted: 31, Rejected: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if sc.jobs, err = wire.DecodeJobs(sc.jobs, body); err != nil || len(sc.jobs) != 32 {
			t.Fatalf("decoded %d jobs, err %v", len(sc.jobs), err)
		}
		if sc.items == nil {
			sc.items = make([]BatchItemResult, 32)
		}
		for i, j := range sc.jobs {
			sc.items[i] = BatchItemResult{Index: i, ID: j.ID, Status: 201}
		}
		sc.items[31] = BatchItemResult{Index: 31, Status: 429, Code: "quota_exceeded", Error: "user 14: quota exceeded"}
		resp.Items = sc.items
		out = appendBatchResponse(out[:0], &resp)
	})
	if allocs != 0 {
		t.Errorf("decoding a 32-item batch and encoding its reply allocates %v times, want 0", allocs)
	}
	checkBatchReply(t, &resp)
}

// checkLoad holds wire.DecodeLoad to json.Unmarshal into a
// wire.LoadResponse, verdict and values, and an accepted answer's
// re-encoding by wire.AppendLoad to writeJSON's bytes.
func checkLoad(t *testing.T, body []byte) {
	t.Helper()
	var want wire.LoadResponse
	werr := json.Unmarshal(body, &want)
	got, err := wire.DecodeLoad(body)
	if (err == nil) != (werr == nil) {
		t.Fatalf("load %q: decoder err %v, encoding/json err %v", body, err, werr)
	}
	if err != nil {
		return
	}
	if got != want {
		t.Fatalf("load %q: decoded %+v, encoding/json %+v", body, got, want)
	}
	if b, ref := wire.AppendLoad(nil, &got), writeJSONBytes(got); !bytes.Equal(b, ref) {
		t.Fatalf("load %+v:\nappender %q\nwriteJSON %q", got, b, ref)
	}
}

// randomize sets every field reachable from v, as populate in
// internal/wire's tests walks them, to a value drawn from what a codec
// gets wrong: integer edges and zeros (omitempty), strings of escapes,
// nil, empty and filled slices, nil pointers and floats in both of
// encoding/json's formats. A field added to a wire type is filled too,
// so a codec that does not know it fails its differential.
func randomize(v reflect.Value, rng *rand.Rand) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			randomize(v.Field(i), rng)
		}
	case reflect.Pointer:
		v.SetZero()
		if rng.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			randomize(v.Elem(), rng)
		}
	case reflect.Slice:
		v.SetZero()
		if n := rng.Intn(5); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := 0; i < n-1; i++ {
				randomize(v.Index(i), rng)
			}
		}
	case reflect.String:
		v.SetString(randomString(rng))
	case reflect.Int, reflect.Int64:
		edges := []int64{0, 0, 1, -1, 201, 3600, 1<<31 - 1, -1 << 31, 1<<63 - 1, -1 << 63}
		if n := rng.Intn(len(edges) + 2); n < len(edges) {
			v.SetInt(edges[n])
		} else {
			v.SetInt(rng.Int63() >> rng.Intn(63) * int64(1-2*rng.Intn(2)))
		}
	case reflect.Float64:
		x := []float64{0, math.Copysign(0, -1), 1, 1.5, 1e-6, 1e21, 9.99e20, 5e-324, math.MaxFloat64}[rng.Intn(9)]
		if rng.Intn(2) == 0 {
			x = math.Float64frombits(rng.Uint64())
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(61)-30))
			}
		}
		v.SetFloat(x)
	default:
		panic("randomize does not know kind " + v.Kind().String())
	}
}

// randomString strings together pieces an escaper gets wrong.
func randomString(rng *rand.Rand) string {
	pieces := []string{"", "a", "<", ">", "&", "\u2028", "\u2029", "\x00", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
		`"`, `\`, "\xff", "\xe2\x80", "\xc0\xaf", "\u00e9", "\U0001f600", "waiting", "running", "done"}
	var b strings.Builder
	for i := rng.Intn(4); i > 0; i-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// TestWireCodecMatchesEncodingJSON holds each hand-written encoder
// byte-equal to encoding/json on 20 000 random values of its type: the
// replies to writeJSON, the submit request to json.Marshal. Each random
// load answer also decodes back, from both layouts, as json.Unmarshal
// decodes it.
func TestWireCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for range 20000 {
		var lr wire.LoadResponse
		randomize(reflect.ValueOf(&lr).Elem(), rng)
		checkLoad(t, writeJSONBytes(lr))
		compact, _ := json.Marshal(lr)
		checkLoad(t, compact)

		var jr wire.JobResponse
		randomize(reflect.ValueOf(&jr).Elem(), rng)
		if got, want := wire.AppendJob(nil, &jr), writeJSONBytes(jr); !bytes.Equal(got, want) {
			t.Fatalf("job answer %+v:\nappender %q\nwriteJSON %q", jr, got, want)
		}

		var req wire.SubmitRequest
		randomize(reflect.ValueOf(&req).Elem(), rng)
		if got, want := wire.AppendSubmit(nil, &req), must(json.Marshal(req)); !bytes.Equal(got, want) {
			t.Fatalf("submit %+v:\nappender %q\njson.Marshal %q", req, got, want)
		}
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// TestLoadCodecAllocations pins the load answer's codec at 0
// allocations: appending it into a reused buffer and decoding it back.
func TestLoadCodecAllocations(t *testing.T) {
	lr := wire.LoadResponse{Capacity: 128, FreeNodes: 17, Waiting: 40, Running: 9, QueuedNodeSec: 1 << 40,
		RemainingNodeSec: 1 << 33, MinQueuedNodeSec: 600, Now: 86400, Slope: 111, StableUntil: 90000, NextID: 123456}
	var buf []byte
	allocs := testing.AllocsPerRun(1000, func() {
		buf = wire.AppendLoad(buf[:0], &lr)
		if back, err := wire.DecodeLoad(buf); err != nil || back != lr {
			t.Fatalf("decoded %+v, %v; want %+v", back, err, lr)
		}
	})
	if allocs != 0 {
		t.Errorf("appending and decoding a load answer allocates %v times, want 0", allocs)
	}
}

// FuzzWireDecode: on any body both load decoders give the same verdict
// and values, and an accepted load re-encodes to writeJSON's bytes.
func FuzzWireDecode(f *testing.F) {
	for _, s := range submitSeeds() {
		f.Add([]byte(s))
	}
	lr := wire.LoadResponse{Capacity: 128, FreeNodes: 1, Waiting: 2, Running: 3, QueuedNodeSec: 4,
		RemainingNodeSec: 5, MinQueuedNodeSec: 6, Now: 7, Slope: 8, StableUntil: 9, NextID: 10}
	f.Add(wire.AppendLoad(nil, &lr))
	f.Add(must(json.Marshal(lr)))
	f.Add([]byte(`{"capacity":8,"CAPACITY":16,"next_id":null,"now_s":-1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkLoad(t, body)
	})
}
