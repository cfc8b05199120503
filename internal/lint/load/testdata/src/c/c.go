// Package c sees a.ID both directly and through b: the two must be one
// type.
package c

import (
	"a"
	"b"
)

var X a.ID = b.Get()
