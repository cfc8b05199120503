// Package b hands out a's type.
package b

import "a"

func Get() a.ID { return 1 }
