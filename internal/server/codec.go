package server

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"schedsearch/internal/job"
)

// The POST /v1/jobs codec, without reflection: decodeJob and decodeJobs
// read a body straight into the jobs the backend admits, accepting and
// rejecting exactly what json.Unmarshal into a wire.SubmitRequest or a
// []wire.SubmitRequest does, with the same values; appendBatchResponse
// writes writeJSON's bytes. codec_test.go holds them to encoding/json.

// submitFields are wire.SubmitRequest's keys.
var submitFields = [...]string{"id", "nodes", "runtime_s", "request_s", "user"}

// field returns the index of the field key selects, -1 for none: the
// name it equals, else the one it equals under bytes.EqualFold, as in
// encoding/json.
func field(key []byte) int {
	for f, name := range submitFields {
		if string(key) == name {
			return f
		}
	}
	for f, name := range submitFields {
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

// decodeJob decodes a single-object submit body.
func decodeJob(body []byte) (job.Job, error) {
	d := decoder{data: body}
	var j job.Job
	return j, d.document(func() error { return d.job(&j) })
}

// decodeJobs decodes an array submit body into dst[:0]; a null item is
// a zero job.
func decodeJobs(dst []job.Job, body []byte) ([]job.Job, error) {
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

// job consumes an object into j: a field's key sets it (null leaves it
// as it was), any other key's value is skipped.
func (d *decoder) job(j *job.Job) error {
	var v [len(submitFields)]int64
	err := d.object(func(key []byte) error {
		f := field(key)
		if f < 0 {
			return d.skip()
		}
		if d.null() {
			return nil
		}
		var err error
		v[f], err = d.int(f == 2 || f == 3)
		return err
	})
	*j = job.Job{ID: int(v[0]), Nodes: int(v[1]), Runtime: v[2], Request: v[3], User: int(v[4])}
	return err
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

// appendBatchResponse appends resp as writeJSON writes it: indented by
// two spaces, an empty id, code and error omitted, a trailing newline.
func appendBatchResponse(b []byte, resp *BatchResponse) []byte {
	b = appendInt(b, "{\n  \"accepted\": ", resp.Accepted)
	b = appendInt(b, ",\n  \"rejected\": ", resp.Rejected)
	switch {
	case resp.Items == nil:
		b = append(b, ",\n  \"items\": null"...)
	case len(resp.Items) == 0:
		b = append(b, ",\n  \"items\": []"...)
	default:
		sep := ",\n  \"items\": [\n    {\n      \"index\": "
		for _, it := range resp.Items {
			b = appendInt(b, sep, it.Index)
			sep = "\n    },\n    {\n      \"index\": "
			if it.ID != 0 {
				b = appendInt(b, ",\n      \"id\": ", it.ID)
			}
			b = appendInt(b, ",\n      \"status\": ", it.Status)
			if it.Code != "" {
				b = appendString(append(b, ",\n      \"code\": "...), it.Code)
			}
			if it.Error != "" {
				b = appendString(append(b, ",\n      \"error\": "...), it.Error)
			}
		}
		b = append(b, "\n    }\n  ]"...)
	}
	return append(b, "\n}\n"...)
}

func appendInt(b []byte, key string, v int) []byte {
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendString appends s quoted as encoding/json's Encoder quotes it:
// \b \f \n \r \t short, other control bytes and < > & as \u00XX,
// \u2028 and \u2029 escaped, each invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
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
