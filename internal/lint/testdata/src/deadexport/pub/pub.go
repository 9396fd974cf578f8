package pub

import "deadexport/internal/a"

// Pub re-exports a.Pub.
type Pub = a.Pub
