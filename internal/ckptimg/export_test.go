package ckptimg

import (
	"bytes"

	"manasim/internal/vid"
)

// StoreSection returns the payload of an encoded image's vid store
// section, or nil when the image has none or does not parse.
func StoreSection(data []byte) []byte {
	if _, err := parseHeader(data); err != nil {
		return nil
	}
	c := &sectionCursor{data: data, off: 16}
	for c.rest() > 0 {
		tag, payload, err := c.next()
		if err != nil {
			return nil
		}
		if tag == secStore2 {
			return payload
		}
	}
	return nil
}

// DecodeStoreSection decodes one vid store section payload.
func DecodeStoreSection(payload []byte) (vid.StoreSnapshot, error) {
	var img Image
	err := decodeStore2(&img, payload)
	return img.Store, err
}

// EncodeStoreSection encodes a snapshot as a vid store section payload.
func EncodeStoreSection(st *vid.StoreSnapshot) []byte {
	var b bytes.Buffer
	if err := writeStoreSection(&b, st); err != nil {
		panic(err)
	}
	return b.Bytes()[16:] // past the section frame
}
