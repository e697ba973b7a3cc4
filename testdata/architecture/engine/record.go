package engine

import "encoding/binary"

func put(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
