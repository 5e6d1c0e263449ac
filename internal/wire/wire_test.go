package wire

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/schema.golden.json")

const goldenPath = "testdata/schema.golden.json"

// wireTypes is one zero value of every type in the schema. Router and
// shard processes can be different builds, so a renamed, retyped or
// dropped field is a protocol break; TestWireSchemaGolden makes it a
// reviewed diff of the golden file instead of a silent one.
var wireTypes = []any{
	SubmitRequest{}, JobResponse{}, QueueResponse{}, MachineResponse{},
	RunningJob{}, DrainResponse{}, ErrorResponse{}, WireJob{},
	AdmitResponse{}, WithdrawRequest{}, WithdrawResponse{}, LoadResponse{},
	WireRecord{}, RecordsResponse{},
}

// populate sets every field reachable from v to a non-zero value:
// numbers count up from 1, strings are "s", pointers are allocated and
// slices get one element, so omitempty hides nothing.
func populate(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			populate(v.Field(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		populate(v.Index(0), next)
	case reflect.String:
		v.SetString("s")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.5)
	default:
		panic("wire: populate does not know kind " + v.Kind().String())
	}
}

// TestWireSchemaGolden marshals a fully-populated value of every wire
// type and compares the result — field names, nesting and JSON types —
// with the golden file, then decodes the golden back strictly: a field
// the golden has and the type lacks is an unknown-field error, a field
// the type has and the golden lacks comes back zero.
func TestWireSchemaGolden(t *testing.T) {
	samples := map[string]any{}
	for _, zero := range wireTypes {
		v := reflect.New(reflect.TypeOf(zero))
		var next int64
		populate(v.Elem(), &next)
		samples[v.Elem().Type().Name()] = v.Interface()
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(samples); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/wire -update` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("wire schema differs from %s; if the change is intended, every router and shard must be redeployed together — rerun with -update and say so in the PR\n got:\n%s", goldenPath, got.Bytes())
	}

	var golden map[string]json.RawMessage
	if err := json.Unmarshal(want, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(samples) {
		t.Errorf("golden holds %d types, the schema %d", len(golden), len(samples))
	}
	for name, sample := range samples {
		back := reflect.New(reflect.TypeOf(sample).Elem())
		dec := json.NewDecoder(bytes.NewReader(golden[name]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(back.Interface()); err != nil {
			t.Errorf("%s: decoding the golden: %v", name, err)
		} else if !reflect.DeepEqual(back.Interface(), sample) {
			t.Errorf("%s: golden decodes to %+v, want %+v", name, back.Elem(), reflect.ValueOf(sample).Elem())
		}
	}
}

// TestWireTypesComplete keeps wireTypes honest: every struct type
// wire.go declares must be in it.
func TestWireTypesComplete(t *testing.T) {
	listed := map[string]bool{}
	for _, zero := range wireTypes {
		listed[reflect.TypeOf(zero).Name()] = true
	}
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if _, isStruct := ts.Type.(*ast.StructType); isStruct && !listed[ts.Name.Name] {
				t.Errorf("wire.%s is not covered by the schema golden; add it to wireTypes", ts.Name.Name)
			}
		}
		return true
	})
}
