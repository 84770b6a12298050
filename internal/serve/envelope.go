package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// The JSON codec of the two call envelopes. A call body is one object of
// a handful of known keys over rows of floats, and encoding/json reads
// and writes it by reflection: a validating scan, then a second pass
// that finds each field by name and grows each row by appending. The
// code below knows the shape. It writes the exact bytes encoding/json
// writes (and leaves json.Marshal to it), and reads the canonical form — the known keys spelled as the
// struct tags spell them, each at most once, number rows, no nulls — in
// one pass into rows of the right size. Whatever is not of that form
// (other or re-cased or escaped keys, nulls, row errors, a syntax error)
// is handed whole to encoding/json through the alias types, so which
// documents are accepted, what they decode to and every error text stay
// encoding/json's.

// The alias types have the envelopes' fields and tags and none of their
// methods: encoding/json reads them by reflection.
type (
	predictRequestAlias  PredictRequest
	predictResponseAlias PredictResponse
)

// encode renders the request as json.Marshal renders it. (There is no
// MarshalJSON: encoding/json validates and copies what a Marshaler
// returns, which costs json.Marshal's callers more than reflection did.
// The handler and the client call encode.)
func (r PredictRequest) encode() ([]byte, error) {
	if b, ok := r.appendJSON(make([]byte, 0, 64+jsonRowsSize(r.Inputs)+floatTextSize*len(r.Input))); ok {
		return b, nil
	}
	return json.Marshal(r)
}

// UnmarshalJSON decodes data as encoding/json decodes the struct:
// fields the document does not name keep their values.
func (r *PredictRequest) UnmarshalJSON(data []byte) error {
	s := envScanner{buf: data}
	if s.request(r, envLimits{}, true) == nil {
		return nil
	}
	return json.Unmarshal(data, (*predictRequestAlias)(r))
}

// encode renders the reply as json.Marshal renders it.
func (p PredictResponse) encode() ([]byte, error) {
	if b, ok := p.appendJSON(make([]byte, 0, 64+jsonRowsSize(p.Outputs))); ok {
		return b, nil
	}
	return json.Marshal(p)
}

// UnmarshalJSON decodes data as encoding/json decodes the struct.
func (p *PredictResponse) UnmarshalJSON(data []byte) error {
	s := envScanner{buf: data}
	if s.response(p) == nil {
		return nil
	}
	return json.Unmarshal(data, (*predictResponseAlias)(p))
}

// floatTextSize is the buffer a float is given before it is written: a
// float32's shortest decimal form is rarely longer, comma included.
const floatTextSize = 12

// jsonRowsSize estimates the encoded length of rows.
func jsonRowsSize(rows [][]float32) int {
	n := 2
	for _, r := range rows {
		n += 3 + floatTextSize*len(r)
	}
	return n
}

// appendFloat32 appends v as encoding/json writes a float32: the shortest
// decimal that reads back as v, exponent form below 1e-6 and from 1e21,
// the exponent without a leading zero. NaN and the infinities have no
// JSON form.
func appendFloat32(b []byte, v float32) ([]byte, bool) {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := float32(math.Abs(f)); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 32)
	if format == 'e' {
		// e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendFloats appends one row; a nil row is null, as a nil slice is.
func appendFloats(b []byte, row []float32) ([]byte, bool) {
	if row == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendFloat32(b, v); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

func appendRows(b []byte, rows [][]float32) ([]byte, bool) {
	if rows == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendFloats(b, row); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// plainText reports whether s is written between quotes as it stands:
// printable ASCII with nothing encoding/json escapes.
func plainText[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSON appends the reply's JSON form to b; false leaves it to the
// reflection codec: a reply with row errors (their strings want
// escaping), or a value JSON cannot carry.
func (p PredictResponse) appendJSON(b []byte) ([]byte, bool) {
	if len(p.Errors) > 0 {
		return b, false
	}
	b, ok := appendRows(append(b, `{"outputs":`...), p.Outputs)
	return append(b, '}'), ok
}

// appendJSON appends the request's JSON form to b; false as above.
func (r PredictRequest) appendJSON(b []byte) ([]byte, bool) {
	if !plainText(r.Priority) {
		return b, false
	}
	b = append(b, '{')
	start, ok := len(b), true
	field := func(name string) {
		if len(b) > start {
			b = append(b, ',')
		}
		b = append(b, name...)
	}
	if len(r.Input) > 0 {
		field(`"input":`)
		b, ok = appendFloats(b, r.Input)
	}
	if ok && len(r.Inputs) > 0 {
		field(`"inputs":`)
		b, ok = appendRows(b, r.Inputs)
	}
	if r.ScalarsOnly {
		field(`"scalars_only":true`)
	}
	if r.Priority != "" {
		field(`"priority":"`)
		b = append(append(b, r.Priority...), '"')
	}
	if r.DeadlineMs != 0 {
		field(`"deadline_ms":`)
		b = strconv.AppendInt(b, int64(r.DeadlineMs), 10)
	}
	return append(b, '}'), ok
}

// envLimits bounds what a decode will build; a zero field is no bound.
type envLimits struct {
	cols int // values in a row
	rows int // rows in the document, "input" included
}

// errOther ends a canonical-form decode of a document that is not of the
// canonical form (which a malformed one is not either): encoding/json
// decides. The scanner's other errors are boundErrors.
var errOther = errors.New("serve: not the canonical envelope")

// A boundError refuses a request for its size rather than its syntax.
type boundError struct {
	status int
	msg    string
}

func (e *boundError) Error() string { return e.msg }

func (l envLimits) tooWide() error {
	return &boundError{http.StatusBadRequest, fmt.Sprintf("input row has more than %d values", l.cols)}
}

func (l envLimits) tooManyRows() error {
	return &boundError{http.StatusRequestEntityTooLarge, fmt.Sprintf("more than %d input rows in one request", l.rows)}
}

// check applies the limits to a request the reflection codec decoded.
func (l envLimits) check(req *PredictRequest) error {
	n := len(req.Inputs)
	if req.Input != nil {
		n++
	}
	if l.rows > 0 && n > l.rows {
		return l.tooManyRows()
	}
	wide := l.cols > 0 && len(req.Input) > l.cols
	for _, row := range req.Inputs {
		wide = wide || l.cols > 0 && len(row) > l.cols
	}
	if wide {
		return l.tooWide()
	}
	return nil
}

// decodeRequest reads one request from body as
// json.NewDecoder(body).Decode would — what follows the object is not
// looked at — except that it stops at the first value or row beyond lim
// instead of building it. declared is the body's Content-Length, -1
// when unknown.
func decodeRequest(body io.Reader, declared int64, lim envLimits) (PredictRequest, error) {
	// The declared length is a hint for the common small body, not a
	// claim to allocate by.
	size := min(declared, 64<<10)
	if size <= 0 {
		size = 512
	}
	s := envScanner{src: body, buf: make([]byte, 0, size)}
	var req PredictRequest
	if err := s.request(&req, lim, false); err != errOther {
		return req, err // read, or refused for its size
	}
	if s.err != nil {
		return req, s.err
	}
	rest := io.Reader(bytes.NewReader(s.buf))
	if s.src != nil {
		rest = io.MultiReader(rest, s.src)
	}
	req = PredictRequest{}
	if err := json.NewDecoder(rest).Decode((*predictRequestAlias)(&req)); err != nil {
		return req, err
	}
	return req, lim.check(&req)
}

// envScanner walks a JSON document that may still be arriving. buf holds
// every byte read so far, consumed or not, so that a document which
// leaves the canonical form can be handed to encoding/json from its first
// byte; src, when not nil, has the rest.
type envScanner struct {
	buf []byte
	i   int
	src io.Reader
	err error // what ended src, other than io.EOF
}

// fill reads more of the document and reports whether any came.
func (s *envScanner) fill() bool {
	if s.src == nil {
		return false
	}
	if len(s.buf) == cap(s.buf) {
		s.buf = append(s.buf, 0)[:len(s.buf)]
	}
	for tries := 0; tries < 100; tries++ {
		n, err := s.src.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		if err != nil {
			s.src = nil
			if err != io.EOF {
				s.err = err
			}
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
	s.src, s.err = nil, io.ErrNoProgress
	return false
}

// peek returns the next byte without consuming it, 0 at the end of the
// document — a byte no JSON token starts with or contains unescaped.
func (s *envScanner) peek() byte {
	if s.i < len(s.buf) || s.fill() {
		return s.buf[s.i]
	}
	return 0
}

// ws skips white space and returns the byte after it, as peek does.
func (s *envScanner) ws() byte {
	for {
		switch c := s.peek(); c {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return c
		}
	}
}

// atEnd reports whether only white space is left of a whole document.
func (s *envScanner) atEnd() bool { return s.ws() == 0 && s.i == len(s.buf) }

// sep consumes what follows an element: a comma (true: another element
// comes) or the closing bracket.
func (s *envScanner) sep(closing byte) (again bool, err error) {
	switch s.ws() {
	case ',':
		s.i++
		return true, nil
	case closing:
		s.i++
		return false, nil
	}
	return false, errOther
}

// word consumes the literal w if it is next, and nothing if it is not.
func (s *envScanner) word(w string) bool {
	from := s.i
	for i := 0; i < len(w); i++ {
		if s.peek() != w[i] {
			s.i = from
			return false
		}
		s.i++
	}
	return true
}

// text consumes a string of plain characters and returns its extent in
// buf, quotes excluded.
func (s *envScanner) text() (from, to int, ok bool) {
	if s.peek() != '"' {
		return 0, 0, false
	}
	s.i++
	from = s.i
	for s.peek() != '"' {
		if s.peek() == 0 {
			return 0, 0, false
		}
		s.i++
	}
	s.i++
	return from, s.i - 1, plainText(s.buf[from : s.i-1])
}

// key consumes `"name":` and the white space around it.
func (s *envScanner) key() (from, to int, ok bool) {
	s.ws()
	if from, to, ok = s.text(); !ok || s.ws() != ':' {
		return 0, 0, false
	}
	s.i++
	s.ws()
	return from, to, true
}

// integer consumes a JSON number that is an integer of at most nine
// characters; the rest (fractions, exponents, what overflows an int) is
// for encoding/json to take or refuse.
func (s *envScanner) integer() (int, bool) {
	from := s.i
	if s.peek() == '-' {
		s.i++
	}
	digits := s.i
	for c := s.peek(); '0' <= c && c <= '9'; c = s.peek() {
		s.i++
	}
	switch c := s.peek(); {
	case s.i-from > 9, c == '.', c == 'e', c == 'E', s.i-digits > 1 && s.buf[digits] == '0':
		return 0, false
	}
	v, err := strconv.Atoi(string(s.buf[from:s.i]))
	return v, err == nil
}

// pow10 are the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float consumes one JSON number and returns the float32 nearest to it,
// the one strconv.ParseFloat(…, 32) returns; false for what is not a
// number or not in float32's range.
//
// The digits are gathered as they are checked. When they make an integer
// below 2^53 (leading zeros aside) and the decimal exponent is within
// ±22, significand and power of ten are both exact float64s, so one multiplication or
// division gives d, the float64 nearest the number, and no such number
// leaves float32's normal range. Rounding d once more gives the float32
// nearest the number unless d sits exactly half way between two
// float32s: the number may lie to either side of d, and only the digits
// know which. That case, like the long and the extreme ones, goes to
// strconv.
func (s *envScanner) float() (float32, bool) {
	if s.src != nil {
		s.fillNumber()
	}
	// The number is in buf to its end: walk it in registers.
	buf, from := s.buf, s.i
	i := from
	c := at(buf, i)
	neg := c == '-'
	if neg {
		i++
		c = at(buf, i)
	}
	var (
		mant   uint64
		digits int // gathered in mant
		exp    int // the number is mant x 10^exp, if short
		short  = true
	)
	switch {
	case c == '0':
		i++
		c = at(buf, i)
	case '1' <= c && c <= '9':
		for ; '0' <= c && c <= '9'; c = at(buf, i) {
			if digits < 18 {
				mant = mant*10 + uint64(c-'0')
				digits++
			} else {
				short = false
			}
			i++
		}
	default:
		return 0, false
	}
	if c == '.' {
		i++
		if c = at(buf, i); c < '0' || c > '9' {
			return 0, false
		}
		for ; '0' <= c && c <= '9'; c = at(buf, i) {
			switch {
			case mant == 0 && c == '0':
				exp--
			case digits < 18:
				mant = mant*10 + uint64(c-'0')
				digits++
				exp--
			default:
				short = false
			}
			i++
		}
	}
	if c == 'e' || c == 'E' {
		i++
		c = at(buf, i)
		negExp := c == '-'
		if c == '+' || c == '-' {
			i++
			c = at(buf, i)
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		e := 0
		for ; '0' <= c && c <= '9'; c = at(buf, i) {
			if e < 1000 {
				e = e*10 + int(c-'0')
			}
			i++
		}
		if negExp {
			e = -e
		}
		exp += e
	}
	s.i = i
	if short && mant < 1<<53 && -22 <= exp && exp <= 22 {
		d := float64(mant)
		if exp < 0 {
			d /= pow10[-exp]
		} else {
			d *= pow10[exp]
		}
		const below = 1<<29 - 1 // the bits of a float64 significand a float32 has no room for
		if math.Float64bits(d)&below != 1<<28 {
			if neg {
				d = -d
			}
			return float32(d), true
		}
	}
	v, err := strconv.ParseFloat(string(buf[from:i]), 32)
	return float32(v), err == nil
}

// at is buf[i], 0 past the end.
func at(buf []byte, i int) byte {
	if i < len(buf) {
		return buf[i]
	}
	return 0
}

// fillNumber reads on until the number that starts at s.i has ended.
func (s *envScanner) fillNumber() {
	for j := s.i; j < len(s.buf) || s.fill(); j++ {
		switch c := s.buf[j]; {
		case '0' <= c && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
		default:
			return
		}
	}
}

// floats reads one row of numbers, `[` already seen, into a slice of
// capacity width, refusing the value after the lim.cols-th.
func (s *envScanner) floats(width int, lim envLimits) ([]float32, error) {
	s.i++
	row := make([]float32, 0, width)
	if s.ws() == ']' {
		s.i++
		return row, nil
	}
	for again := true; again; {
		s.ws()
		// A number out of float32's range is a type error: not ours.
		v, ok := s.float()
		if !ok {
			return nil, errOther
		}
		if lim.cols > 0 && len(row) == lim.cols {
			return nil, lim.tooWide()
		}
		row = append(row, v)
		if at(s.buf, s.i) == ',' { // the compact form: no white space to skip
			s.i++
			continue
		}
		var err error
		if again, err = s.sep(']'); err != nil {
			return nil, err
		}
	}
	return row, nil
}

// rowWidth sizes the row that starts at `[`: its comma count when its
// end has arrived, a guess otherwise.
func (s *envScanner) rowWidth() int {
	end := bytes.IndexByte(s.buf[s.i:], ']')
	if end < 0 {
		return 8
	}
	return bytes.Count(s.buf[s.i:s.i+end], []byte{','}) + 1
}

// row reads one row of numbers if `[` is next, counting it in *count.
func (s *envScanner) row(width int, lim envLimits, count *int) ([]float32, error) {
	if s.peek() != '[' {
		return nil, errOther
	}
	if lim.rows > 0 && *count == lim.rows {
		return nil, lim.tooManyRows()
	}
	*count++
	switch {
	case lim.cols > 0:
		width = lim.cols
	case width == 0:
		width = s.rowWidth()
	}
	return s.floats(width, lim)
}

// rows reads a list of rows, each sized as the one before it.
func (s *envScanner) rows(lim envLimits, count *int) ([][]float32, error) {
	if s.peek() != '[' {
		return nil, errOther
	}
	s.i++
	out := make([][]float32, 0, 1)
	if s.ws() == ']' {
		s.i++
		return out, nil
	}
	width := 0
	for again := true; again; {
		s.ws()
		row, err := s.row(width, lim, count)
		if err != nil {
			return nil, err
		}
		out, width = append(out, row), len(row)
		if again, err = s.sep(']'); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// object opens an object and reports whether it has members.
func (s *envScanner) object() (members bool, err error) {
	if s.ws() != '{' {
		return false, errOther
	}
	s.i++
	if s.ws() == '}' {
		s.i++
		return false, nil
	}
	return true, nil
}

// response reads a document that is one canonical reply and nothing
// else: {"outputs":[[...],...]}. p is written only on success.
func (s *envScanner) response(p *PredictResponse) error {
	again, err := s.object()
	var outputs [][]float32
	seen, count := false, 0
	for again && err == nil {
		from, to, ok := s.key()
		if !ok || seen || string(s.buf[from:to]) != "outputs" {
			return errOther
		}
		seen = true
		if outputs, err = s.rows(envLimits{}, &count); err != nil {
			return err
		}
		again, err = s.sep('}')
	}
	if err != nil || !s.atEnd() {
		return errOther
	}
	if seen {
		p.Outputs = outputs
	}
	return nil
}

// request reads a canonical request under lim; whole says the document
// must end with it. req is written only on success, and only the fields
// the document names.
func (s *envScanner) request(req *PredictRequest, lim envLimits, whole bool) error {
	again, err := s.object()
	var (
		got   PredictRequest
		seen  [5]bool
		count int
	)
	for again && err == nil {
		from, to, ok := s.key()
		if !ok {
			return errOther
		}
		field, known := requestFields[string(s.buf[from:to])]
		if !known || seen[field] {
			return errOther
		}
		seen[field] = true
		switch field {
		case fieldInput:
			got.Input, err = s.row(0, lim, &count)
		case fieldInputs:
			got.Inputs, err = s.rows(lim, &count)
		case fieldScalarsOnly:
			if got.ScalarsOnly = s.word("true"); !got.ScalarsOnly && !s.word("false") {
				return errOther
			}
		case fieldPriority:
			if from, to, ok = s.text(); !ok {
				return errOther
			}
			got.Priority = string(s.buf[from:to])
		case fieldDeadlineMs:
			n, ok := s.integer()
			if !ok {
				return errOther
			}
			got.DeadlineMs = n
		}
		if err != nil {
			return err
		}
		again, err = s.sep('}')
	}
	if err != nil {
		return err
	}
	if whole && !s.atEnd() {
		return errOther
	}
	if seen[fieldInput] {
		req.Input = got.Input
	}
	if seen[fieldInputs] {
		req.Inputs = got.Inputs
	}
	if seen[fieldScalarsOnly] {
		req.ScalarsOnly = got.ScalarsOnly
	}
	if seen[fieldPriority] {
		req.Priority = got.Priority
	}
	if seen[fieldDeadlineMs] {
		req.DeadlineMs = got.DeadlineMs
	}
	return nil
}

// The request's keys, as its struct tags spell them.
const (
	fieldInput = iota
	fieldInputs
	fieldScalarsOnly
	fieldPriority
	fieldDeadlineMs
)

var requestFields = map[string]int{
	"input": fieldInput, "inputs": fieldInputs, "scalars_only": fieldScalarsOnly,
	"priority": fieldPriority, "deadline_ms": fieldDeadlineMs,
}
