// Package a defines a type other packages share.
package a

type ID int
