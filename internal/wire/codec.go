package wire

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"schedsearch/internal/job"
)

// The codec of the messages that cross the wire once per job or more,
// without reflection: the submit (DecodeJob and DecodeJobs on the
// server, AppendSubmit on the router), the job answer of its 201 and of
// GET /v1/jobs/{id} (AppendJob), and the shard's load answer
// (AppendLoad on the shard, DecodeLoad on the router). Every decode
// accepts and rejects exactly what json.Unmarshal into the wire type
// does, with the same values; every append writes encoding/json's bytes:
// json.Marshal's compact ones for the request, and for the replies an
// Encoder's with a two-space indent and its trailing newline (the
// server's writeJSON). Their tests live beside writeJSON, in
// internal/server. The rarer messages go through encoding/json.

// The keys of the two all-integer messages, in their fields' order;
// the bits of the wide masks mark the int64 fields, the rest are ints.
var (
	submitFields = [...]string{"id", "nodes", "runtime_s", "request_s", "user"}
	loadFields   = [...]string{"capacity", "free_nodes", "waiting", "running", "queued_node_sec",
		"remaining_node_sec", "min_queued_node_sec", "now_s", "slope_nodes", "stable_until_s", "next_id"}
)

const (
	submitWide = 1<<2 | 1<<3
	loadWide   = 1<<4 | 1<<5 | 1<<6 | 1<<7 | 1<<9
)

// field returns the index of the name key selects, -1 for none: the
// name it equals, else the one it equals under bytes.EqualFold, as in
// encoding/json.
func field(key []byte, names []string) int {
	for f, name := range names {
		if string(key) == name {
			return f
		}
	}
	for f, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return f
		}
	}
	return -1
}

// decoder reads one JSON document from data, off bytes in; depth counts
// the open arrays and objects against encoding/json's limit of 10 000.
type decoder struct {
	data       []byte
	off, depth int
}

// DecodeJob decodes a single-object POST /v1/jobs body, a
// SubmitRequest, into the job it submits.
func DecodeJob(body []byte) (job.Job, error) {
	d := decoder{data: body}
	var j job.Job
	return j, d.document(func() error { return d.job(&j) })
}

// DecodeJobs decodes an array POST /v1/jobs body into dst[:0]; a null
// item is a zero job.
func DecodeJobs(dst []job.Job, body []byte) ([]job.Job, error) {
	d := decoder{data: body}
	jobs := dst[:0]
	err := d.document(func() error {
		return d.container('[', ']', func() error {
			jobs = append(jobs, job.Job{})
			if d.null() {
				return nil
			}
			return d.job(&jobs[len(jobs)-1])
		})
	})
	return jobs, err
}

// DecodeLoad decodes a GET /v1/shard/load answer. A key it lacks reads
// 0, as next_id does from a shard that predates it.
func DecodeLoad(body []byte) (LoadResponse, error) {
	d := decoder{data: body}
	var v [len(loadFields)]int64
	if err := d.document(func() error { return d.ints(loadFields[:], loadWide, v[:]) }); err != nil {
		return LoadResponse{}, err
	}
	return LoadResponse{
		Capacity: int(v[0]), FreeNodes: int(v[1]), Waiting: int(v[2]), Running: int(v[3]),
		QueuedNodeSec: v[4], RemainingNodeSec: v[5], MinQueuedNodeSec: v[6],
		Now: v[7], Slope: int(v[8]), StableUntil: v[9], NextID: int(v[10]),
	}, nil
}

// document decodes the body's one value with value, unless it is null.
func (d *decoder) document(value func() error) error {
	if !d.null() {
		if err := value(); err != nil {
			return err
		}
	}
	if d.peek(); d.off < len(d.data) {
		return d.unexpected("end of input")
	}
	return nil
}

func (d *decoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("json: unexpected end of input at offset %d, want %s", d.off, want)
	}
	return fmt.Errorf("json: unexpected %q at offset %d, want %s", d.data[d.off], d.off, want)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		if c := d.data[d.off]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// literal consumes lit if it comes next.
func (d *decoder) literal(lit string) bool {
	if d.peek() == lit[0] && bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		d.off += len(lit)
		return true
	}
	return false
}

func (d *decoder) null() bool { return d.literal("null") }

// eat consumes the next byte, whitespace included, if set holds it.
func (d *decoder) eat(set string) bool {
	if d.off < len(d.data) && strings.IndexByte(set, d.data[d.off]) >= 0 {
		d.off++
		return true
	}
	return false
}

// container consumes an array (open '[') or an object (open '{'),
// calling elem once per element.
func (d *decoder) container(open, close byte, elem func() error) error {
	if d.peek() != open {
		return d.unexpected(string(open))
	}
	if d.depth++; d.depth > 10000 {
		return d.unexpected("nesting no deeper than 10000")
	}
	d.off++
	if d.peek() != close {
		for {
			if err := elem(); err != nil {
				return err
			}
			if d.peek() != ',' {
				break
			}
			d.off++
		}
	}
	if d.peek() != close {
		return d.unexpected("',' or " + string(close))
	}
	d.off++
	d.depth--
	return nil
}

// object consumes an object, calling member with each key's text and
// off at the member's value.
func (d *decoder) object(member func(key []byte) error) error {
	return d.container('{', '}', func() error {
		if d.peek() != '"' {
			return d.unexpected("key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.unexpected("':'")
		}
		d.off++
		return member(key)
	})
}

// job consumes a SubmitRequest object into j.
func (d *decoder) job(j *job.Job) error {
	var v [len(submitFields)]int64
	err := d.ints(submitFields[:], submitWide, v[:])
	*j = job.Job{ID: int(v[0]), Nodes: int(v[1]), Runtime: v[2], Request: v[3], User: int(v[4])}
	return err
}

// ints consumes an object of integer fields into v, names[f] keying
// v[f]: a field's key sets it (null leaves it as it was), any other
// key's value is skipped. Field f is an int64 if bit f of wide is set,
// else an int.
func (d *decoder) ints(names []string, wide uint, v []int64) error {
	return d.object(func(key []byte) error {
		f := field(key, names)
		if f < 0 {
			return d.skip()
		}
		if d.null() {
			return nil
		}
		var err error
		v[f], err = d.int(wide>>f&1 != 0)
		return err
	})
}

// int consumes an integer: a number with neither fraction nor exponent
// that fits an int64, and an int unless wide.
func (d *decoder) int(wide bool) (int64, error) {
	start := d.off
	integer, err := d.number()
	if err != nil {
		return 0, err
	}
	digits, limit := d.data[start:d.off], uint64(math.MaxInt64)
	if digits[0] == '-' {
		digits, limit = digits[1:], limit+1
	}
	var u uint64
	for _, c := range digits {
		u = u*10 + uint64(c-'0')
	}
	v := int64(u)
	if limit > math.MaxInt64 {
		v = -v
	}
	if !integer || len(digits) > 19 || u > limit || !wide && int64(int(v)) != v {
		return 0, fmt.Errorf("json: %s at offset %d is not an integer in range", d.data[start:d.off], start)
	}
	return v, nil
}

// skip consumes one value of any type.
func (d *decoder) skip() error {
	switch d.peek() {
	case '{':
		return d.object(func([]byte) error { return d.skip() })
	case '[':
		return d.container('[', ']', d.skip)
	case '"':
		_, err := d.str()
		return err
	}
	if d.literal("true") || d.literal("false") || d.null() {
		return nil
	}
	_, err := d.number()
	return err
}

// number consumes a number, off at its first byte, and reports whether
// it is an integer.
func (d *decoder) number() (integer bool, err error) {
	if d.off < len(d.data) && d.data[d.off] == '-' {
		d.off++
	}
	start := d.off
	ok := d.digits() && (d.data[start] != '0' || d.off == start+1)
	frac := ok && d.off < len(d.data) && d.data[d.off] == '.'
	if frac {
		d.off++
		ok = d.digits()
	}
	exp := ok && d.off < len(d.data) && d.data[d.off]|0x20 == 'e'
	if exp {
		d.off++
		d.eat("+-")
		ok = d.digits()
	}
	if !ok {
		return false, d.unexpected("digit")
	}
	return !frac && !exp, nil
}

// digits consumes a run of digits and reports whether there was one.
func (d *decoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && d.data[d.off]-'0' <= 9 {
		d.off++
	}
	return d.off > start
}

// str consumes a string and returns its text: the raw bytes when it
// holds no escape, else a copy with its escapes decoded. An escape that
// no field name holds may decode to another that none holds either: a
// control escape to 0, a surrogate half to U+FFFD.
func (d *decoder) str() ([]byte, error) {
	d.off++
	start, text := d.off, []byte(nil) // text stays nil until an escape
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			if text == nil {
				return d.data[start : d.off-1], nil
			}
			return text, nil
		case c < 0x20:
			return nil, d.unexpected("string byte")
		case c != '\\':
			if text != nil {
				text = append(text, c)
			}
			d.off++
			continue
		}
		if text == nil {
			text = append([]byte(nil), d.data[start:d.off]...)
		}
		d.off++
		switch {
		case d.eat(`"\/`):
			text = append(text, d.data[d.off-1])
		case d.eat("bfnrt"):
			text = append(text, 0)
		case d.eat("u") && d.off+4 <= len(d.data):
			r, err := strconv.ParseUint(string(d.data[d.off:d.off+4]), 16, 16)
			if err != nil {
				return nil, d.unexpected("4 hex digits")
			}
			text = utf8.AppendRune(text, rune(r))
			d.off += 4
		default:
			return nil, d.unexpected("escape")
		}
	}
	return nil, d.unexpected(`'"'`)
}

// AppendSubmit appends req as json.Marshal writes it.
func AppendSubmit(b []byte, req *SubmitRequest) []byte {
	v := [len(submitFields)]int64{int64(req.ID), int64(req.Nodes), req.RuntimeS, req.RequestS, int64(req.User)}
	return appendInts(b, submitFields[:], v[:], false)
}

// AppendLoad appends lr as the server's writeJSON writes it.
func AppendLoad(b []byte, lr *LoadResponse) []byte {
	v := [len(loadFields)]int64{int64(lr.Capacity), int64(lr.FreeNodes), int64(lr.Waiting), int64(lr.Running),
		lr.QueuedNodeSec, lr.RemainingNodeSec, lr.MinQueuedNodeSec, lr.Now, int64(lr.Slope), lr.StableUntil, int64(lr.NextID)}
	return appendInts(b, loadFields[:], v[:], true)
}

// appendInts appends an object of integer fields, names[f] keying v[f]:
// compact as json.Marshal writes it, or indented as writeJSON does.
func appendInts(b []byte, names []string, v []int64, indented bool) []byte {
	open, next, colon, end := `{"`, `,"`, `":`, "}"
	if indented {
		open, next, colon, end = "{\n  \"", ",\n  \"", `": `, "\n}\n"
	}
	for f, name := range names {
		b = strconv.AppendInt(append(append(append(b, open...), name...), colon...), v[f], 10)
		open = next
	}
	return append(b, end...)
}

// AppendJob appends jr as the server's writeJSON writes it: omitempty
// drops a zero estimate_s, a nil start_s, end_s or bounded_slowdown and
// empty node_ids.
func AppendJob(b []byte, jr *JobResponse) []byte {
	b = AppendString(AppendInt(b, "{\n  \"id\": ", jr.ID), ",\n  \"state\": ", jr.State)
	b = AppendInt(b, ",\n  \"nodes\": ", jr.Nodes)
	b = AppendInt(b, ",\n  \"user\": ", jr.User)
	b = AppendInt(b, ",\n  \"submit_s\": ", jr.SubmitS)
	b = AppendInt(b, ",\n  \"runtime_s\": ", jr.RuntimeS)
	b = AppendInt(b, ",\n  \"request_s\": ", jr.RequestS)
	if jr.EstimateS != 0 {
		b = AppendInt(b, ",\n  \"estimate_s\": ", jr.EstimateS)
	}
	if jr.StartS != nil {
		b = AppendInt(b, ",\n  \"start_s\": ", *jr.StartS)
	}
	if jr.EndS != nil {
		b = AppendInt(b, ",\n  \"end_s\": ", *jr.EndS)
	}
	b = AppendInt(b, ",\n  \"wait_s\": ", jr.WaitS)
	if jr.BoundedSlowdown != nil {
		b = appendFloat(append(b, ",\n  \"bounded_slowdown\": "...), *jr.BoundedSlowdown)
	}
	if len(jr.NodeIDs) > 0 {
		key := ",\n  \"node_ids\": [\n    "
		for _, id := range jr.NodeIDs {
			b = AppendInt(b, key, id)
			key = ",\n    "
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...)
}

// appendFloat appends a finite x as encoding/json writes a float64:
// 'f' format, 'e' below 1e-6 or from 1e21 on, with an exponent of one
// digit unpadded (e-7, not e-07). A bounded slowdown is always finite.
func appendFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// AppendInt appends key and then v in decimal.
func AppendInt[T int | int64](b []byte, key string, v T) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// AppendString appends key and then s quoted as encoding/json's Encoder
// quotes it: \b \f \n \r \t short, other control bytes and < > & as
// \u00XX, \u2028 and \u2029 escaped, each invalid UTF-8 byte as \ufffd.
func AppendString(b []byte, key, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(append(b, key...), '"')
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		switch k := strings.IndexRune("\b\f\n\r\t\"\\", r); {
		case k >= 0:
			b = append(b, '\\', "bfnrt\"\\"[k])
		case r >= 0x20 && r < utf8.RuneSelf && r != '<' && r != '>' && r != '&':
			b = append(b, byte(r))
		case r < utf8.RuneSelf:
			b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xF])
		case r == utf8.RuneError && size == 1:
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return append(b, '"')
}
