// Package alias is the pagealias fixture: each function is one lifetime
// shape the analyzer must flag (// want) or must leave alone. The
// helpers at the top exercise the interprocedural summary layer — the
// analyzer has no annotations to go on, only their computed summaries.
package alias

import "vecstudy/internal/pg/buffer"

type sink struct{ data []byte }

var global []byte

// view returns page bytes of its parameter. Legal on its own: the
// caller holds the pin, and the summary records the derivation.
func view(b *buffer.Buf) []byte { return b.Page() }

// sub derives through two helper hops.
func sub(b *buffer.Buf) []byte { return view(b)[8:16] }

// --- violations -------------------------------------------------------------

// useAfterRelease reads the page view after dropping the pin.
func useAfterRelease(p *buffer.Pool, rel buffer.RelID) byte {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return 0
	}
	pg := buf.Page()
	buf.Release()
	return pg[0] // want "pg is derived from the pinned page of buf"
}

// throughHelper is the same bug with the derivation laundered through
// two helper calls — only the summaries connect v to buf.
func throughHelper(p *buffer.Pool, rel buffer.RelID) byte {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return 0
	}
	v := sub(buf)
	buf.Release()
	return v[3] // want "v is derived from the pinned page of buf"
}

// mayReleased uses the view after a branch that may have released.
func mayReleased(p *buffer.Pool, rel buffer.RelID, cond bool) byte {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return 0
	}
	pg := buf.Page()
	if cond {
		buf.Release()
	}
	x := pg[1] // want "pg is derived from the pinned page of buf"
	if !cond {
		buf.Release()
	}
	return x
}

// storeField parks a view in a struct that does not carry the pin.
func storeField(p *buffer.Pool, rel buffer.RelID, s *sink) {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return
	}
	s.data = buf.Page() // want "escapes into a struct field"
	buf.Release()
}

// storeGlobal parks a view in a package variable.
func storeGlobal(p *buffer.Pool, rel buffer.RelID) {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return
	}
	global = view(buf) // want "escapes into package variable global"
	buf.Release()
}

// sendView puts a view on a channel; the receiver outlives the pin.
func sendView(p *buffer.Pool, rel buffer.RelID, ch chan []byte) {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return
	}
	ch <- buf.Page() // want "sent on a channel"
	buf.Release()
}

// goCapture hands a view to a goroutine that may run after Release.
func goCapture(p *buffer.Pool, rel buffer.RelID) {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return
	}
	pg := buf.Page()
	go func() {
		_ = pg[0] // want "captured by a goroutine"
	}()
	buf.Release()
}

// returnLocalView hands the caller a view whose pin stays (deferred)
// inside this frame.
func returnLocalView(p *buffer.Pool, rel buffer.RelID) []byte {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return nil
	}
	defer buf.Release()
	return buf.Page() // want "the pin does not travel with it"
}

// --- must not flag ----------------------------------------------------------

// callbackBorrow is the sanctioned zero-copy idiom: views flow DOWN the
// stack as call arguments while the pin is held.
func callbackBorrow(p *buffer.Pool, rel buffer.RelID, fn func([]byte)) error {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return err
	}
	fn(sub(buf))
	buf.Release()
	return nil
}

// copied snapshots the bytes; the copy owes the pin nothing.
func copied(p *buffer.Pool, rel buffer.RelID) []byte {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return nil
	}
	out := append([]byte(nil), buf.Page()...)
	buf.Release()
	return out
}

// scalarOut extracts a scalar; scalars never carry derivation.
func scalarOut(p *buffer.Pool, rel buffer.RelID) uint32 {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return 0
	}
	n := uint32(buf.Page()[0])
	buf.Release()
	return n
}

// escort carries the pin next to the views it covers: the
// pin-escorted-holder rule (pase/ivf's Run shape).
type escort struct {
	pin  *buffer.Buf
	data []byte
}

func escorted(p *buffer.Pool, rel buffer.RelID, e *escort) error {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return err
	}
	e.data = buf.Page()
	e.pin = buf
	return nil
}

// openView is the checked ownership-transfer shape: pin and view travel
// to the caller together, under the directive pinrelease verifies.
//
//vetvec:ownership-transfer
func openView(p *buffer.Pool, rel buffer.RelID) (*buffer.Buf, []byte, error) {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return nil, nil, err
	}
	return buf, buf.Page(), nil
}

// blessedStore provably copies before the pin drops and says so.
func blessedStore(p *buffer.Pool, rel buffer.RelID, s *sink) {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return
	}
	s.data = buf.Page()[0:2:2] //vetvec:page-copied — consumed synchronously before Release
	use(s.data)
	s.data = nil
	buf.Release()
}

func use([]byte) {}

// localAssembly builds views in locals and copies before they leave.
func localAssembly(p *buffer.Pool, rel buffer.RelID) ([]byte, error) {
	buf, err := p.Pin(rel, 0)
	if err != nil {
		return nil, err
	}
	var rows [][]byte
	pg := buf.Page()
	rows = append(rows, pg[0:4], pg[4:8])
	out := append([]byte(nil), rows[0]...)
	buf.Release()
	return out, nil
}
