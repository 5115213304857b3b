package obs

// Attr is one event attribute (engine name, pattern ID, selection size).
type Attr struct {
	Key   string
	Value any
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: value} }

// U64 builds an unsigned attribute.
func U64(key string, value uint64) Attr { return Attr{Key: key, Value: value} }

// F64 builds a float attribute.
func F64(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }
