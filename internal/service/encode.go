package service

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"

	"ringsched/internal/trace"
)

// Encode renders a response body in the canonical form shared by the
// server and the -json CLI modes: two-space-indented JSON with a trailing
// newline, byte for byte json.MarshalIndent(v, "", "  ") plus "\n". Cache
// entries store exactly these bytes, so a cache hit is bit-identical to
// the original response.
//
// MarshalIndent marshals compactly and then re-scans the whole body with
// the general json.Indent, which revalidates every byte. Encode marshals
// into a pooled buffer instead and re-indents with appendIndent, which
// relies on its input being json.Marshal's own valid, compact output and
// so only has to act on structural bytes. The result is one allocation
// of exactly the body's length (cap == len), so the cache charges what
// an entry really keeps alive.
func Encode(v any) ([]byte, error) {
	eb := encodePool.Get().(*encodeBuffers)
	defer eb.release()
	eb.compact.Reset()
	// Encoder.Encode is json.Marshal (HTML escaping on) plus a newline.
	if err := eb.enc.Encode(v); err != nil {
		return nil, err
	}
	compact := eb.compact.Bytes()
	eb.indented = appendIndent(eb.indented[:0], compact[:len(compact)-1])
	out := make([]byte, len(eb.indented)+1)
	copy(out, eb.indented)
	out[len(out)-1] = '\n'
	return out, nil
}

// encodeTraced is Encode under an "encode" span, so response marshalling
// shows up as its own stage in traces and the stage-latency histograms.
func encodeTraced(ctx context.Context, v any) ([]byte, error) {
	_, sp := trace.Start(ctx, "encode")
	defer sp.End()
	b, err := Encode(v)
	sp.SetError(err)
	return b, err
}

// encodeBuffers is Encode's reusable scratch: the compact marshal and
// its indented rendering.
type encodeBuffers struct {
	compact  bytes.Buffer
	enc      *json.Encoder
	indented []byte
}

// maxPooledEncode caps the scratch a pooled encodeBuffers may keep, so
// one huge experiments or sweep body does not pin its buffers for good.
const maxPooledEncode = 1 << 20

var encodePool = sync.Pool{New: func() any {
	eb := new(encodeBuffers)
	eb.enc = json.NewEncoder(&eb.compact)
	return eb
}}

func (eb *encodeBuffers) release() {
	if eb.compact.Cap() > maxPooledEncode || cap(eb.indented) > maxPooledEncode {
		return
	}
	encodePool.Put(eb)
}

// indentSpaces is a newline followed by the indentation of 32 levels.
const indentSpaces = "\n                                                                "

// appendIndent appends src re-indented exactly as json.Indent(dst, src,
// "", "  ") would. src must be compact, valid JSON as json.Marshal emits
// it: no insignificant whitespace, so every byte outside a string is
// either structural or part of a number or literal. Strings, numbers and
// literals are copied in whole runs; only { } [ ] , : are acted on, and
// an empty {} or [] stays on one line.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	start := 0 // first byte of src not yet copied to dst
	for i := 0; i < len(src); i++ {
		c := src[i]
		if !indentByte[c] {
			continue
		}
		switch c {
		case '"':
			i = stringEnd(src, i)
		case ':':
			dst = append(dst, src[start:i+1]...)
			dst = append(dst, ' ')
			start = i + 1
		case ',':
			dst = append(dst, src[start:i+1]...)
			dst = appendNewline(dst, depth)
			start = i + 1
		case '{', '[':
			// '{'+2 == '}' and '['+2 == ']'.
			if i+1 < len(src) && src[i+1] == c+2 {
				i++
				continue
			}
			dst = append(dst, src[start:i+1]...)
			depth++
			dst = appendNewline(dst, depth)
			start = i + 1
		case '}', ']':
			dst = append(dst, src[start:i]...)
			depth--
			dst = appendNewline(dst, depth)
			start = i // the bracket leads the next run
		}
	}
	return append(dst, src[start:]...)
}

// indentByte marks the bytes appendIndent acts on.
var indentByte = [256]bool{'"': true, ':': true, ',': true, '{': true, '[': true, '}': true, ']': true}

// stringEnd returns the index of the quote closing the string that opens
// at src[open]; a backslash escapes the byte after it.
func stringEnd(src []byte, open int) int {
	for i := open + 1; i < len(src); i++ {
		switch src[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return len(src) - 1 // unterminated: not Marshal output
}

// appendNewline appends a newline and depth levels of indentation.
func appendNewline(dst []byte, depth int) []byte {
	if n := 1 + 2*depth; n <= len(indentSpaces) {
		return append(dst, indentSpaces[:n]...)
	}
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
