// Package pool is the simulator's one recycling primitive: a LIFO free list
// that keeps the per-message and per-chunk paths allocation-free, and a
// capped variant for the firmware's fixed-size pending pools.
package pool

// Pool is a LIFO free list of *T. The zero value is ready to use. Objects
// come back exactly as Put left them; callers reset what they need.
type Pool[T any] struct {
	// New builds an object when the list is empty — the place to bind a
	// carrier's callbacks once. Nil means new(T).
	New  func() *T
	free []*T
}

// Get pops the most recently Put object, or builds one.
func (p *Pool[T]) Get() *T {
	if k := len(p.free); k > 0 {
		x := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		return x
	}
	if p.New != nil {
		return p.New()
	}
	return new(T)
}

// Put returns x to the list.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }

// Len reports the objects waiting on the list.
func (p *Pool[T]) Len() int { return len(p.free) }

// Capped is a Pool that lends at most Cap objects at once, like a free list
// sized at init, but builds each object only the first time it is needed.
type Capped[T any] struct {
	Pool[T]
	Cap   int
	inUse int
	peak  int
}

// Get lends an object, or returns nil when Cap are already out.
func (c *Capped[T]) Get() *T {
	if c.inUse == c.Cap {
		return nil
	}
	c.inUse++
	c.peak = max(c.peak, c.inUse)
	return c.Pool.Get()
}

// Put returns a lent object.
func (c *Capped[T]) Put(x *T) {
	c.inUse--
	c.Pool.Put(x)
}

// Forfeit returns a lent object's slot but not the object, which its holder
// keeps using; a later Get builds a replacement.
func (c *Capped[T]) Forfeit() { c.inUse-- }

// Free reports how many more objects Get can lend.
func (c *Capped[T]) Free() int { return c.Cap - c.inUse }

// Low reports the fewest objects ever free (the low-water mark).
func (c *Capped[T]) Low() int { return c.Cap - c.peak }
