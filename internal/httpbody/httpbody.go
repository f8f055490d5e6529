// Package httpbody reads HTTP message bodies whole, in one allocation
// when the sender declared the length.
package httpbody

import "io"

// maxPresize caps the buffer Read sizes from a declared length before
// any byte has arrived, so a peer that announces a large body and
// sends little of it pins no more than this.
const maxPresize = 64 << 10

// Read reads r to EOF as io.ReadAll does. declared is the length the
// sender announced (Content-Length; -1 when unknown). A body of a
// declared length up to maxPresize is read into one buffer of that
// length, with a byte to spare for the read that sees EOF; a longer
// one grows from there as its bytes arrive. When a read fails it
// returns the bytes read so far with the error.
func Read(r io.Reader, declared int64) ([]byte, error) {
	if declared < 0 {
		return io.ReadAll(r)
	}
	b := make([]byte, 0, min(declared, maxPresize)+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
