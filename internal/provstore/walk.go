package provstore

// A backend chain is walked through Unwrap methods, following the errors
// package's convention: a wrapper over one store (batching, verified://, a
// size-charging connection) has Unwrap() Backend, and a composite over
// several (sharded://, replicated://) has Unwrap() []Backend. Walk is the
// one traversal of a chain; every lookup that needs a layer below the top
// goes through it or through As.

type wrapper interface{ Unwrap() Backend }

type composite interface{ Unwrap() []Backend }

// Walk visits b and then, depth first, every store beneath it. A store for
// which visit returns false is not descended into; the walk continues with
// its siblings. A nil b visits nothing.
func Walk(b Backend, visit func(Backend) bool) {
	if b == nil || !visit(b) {
		return
	}
	switch u := b.(type) {
	case wrapper:
		Walk(u.Unwrap(), visit)
	case composite:
		for _, c := range u.Unwrap() {
			Walk(c, visit)
		}
	}
}

// As returns the first store in b's chain that is a T, following only
// single-store wrappers: it never descends into a composite, so it never
// returns one shard or one replica for the whole store.
func As[T any](b Backend) (T, bool) {
	var out T
	found := false
	Walk(b, func(n Backend) bool {
		if t, ok := n.(T); ok {
			out, found = t, true
			return false
		}
		_, ok := n.(wrapper)
		return ok
	})
	return out, found
}
