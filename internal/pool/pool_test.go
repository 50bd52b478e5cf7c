package pool

import "testing"

type carrier struct {
	id int
	fn func() int
}

// TestPoolLIFOAndConstructor: Get hands back the most recent Put first,
// New runs only when the list is empty, and Len counts what waits.
func TestPoolLIFOAndConstructor(t *testing.T) {
	built := 0
	var p Pool[carrier]
	p.New = func() *carrier {
		built++
		c := &carrier{id: built}
		c.fn = func() int { return c.id }
		return c
	}
	a, b := p.Get(), p.Get()
	if built != 2 || a.fn() != 1 || b.fn() != 2 {
		t.Fatalf("built %d, ids %d %d; want 2 built with bound callbacks", built, a.fn(), b.fn())
	}
	p.Put(a)
	p.Put(b)
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	if got := p.Get(); got != b {
		t.Errorf("Get returned carrier %d, want the last Put (%d)", got.id, b.id)
	}
	if got := p.Get(); got != a {
		t.Errorf("Get returned carrier %d, want %d", got.id, a.id)
	}
	if built != 2 || p.Len() != 0 {
		t.Errorf("built %d, Len %d after reuse; want 2 and 0", built, p.Len())
	}
	var z Pool[carrier]
	if c := z.Get(); c == nil || c.fn != nil {
		t.Errorf("zero Pool Get = %+v, want a zeroed object", c)
	}
}

// TestCappedLendsExactlyCap: Get fails at exactly Cap, Forfeit returns a
// slot without its object, and the low-water mark remembers the peak.
func TestCappedLendsExactlyCap(t *testing.T) {
	c := Capped[carrier]{Cap: 2}
	a, b := c.Get(), c.Get()
	if a == nil || b == nil || c.Get() != nil {
		t.Fatal("Capped lent other than exactly Cap objects")
	}
	if c.Free() != 0 || c.Low() != 0 {
		t.Errorf("Free %d Low %d at the cap, want 0 0", c.Free(), c.Low())
	}
	c.Put(a)
	c.Forfeit()
	if c.Free() != 2 || c.Len() != 1 || c.Low() != 0 {
		t.Errorf("Free %d Len %d Low %d, want 2 1 0", c.Free(), c.Len(), c.Low())
	}
	if c.Get() != a || c.Get() == nil || c.Get() != nil {
		t.Error("after Forfeit the pool must reuse the returned object, build one more, then stop")
	}
}
