package analysis

import (
	"go/types"
	"reflect"
)

// A Fact is a typed observation an analyzer exports about an object (a
// function, type, or struct field) so that analyses of packages that
// import the object can consume it — the go/analysis Facts model.
// Concrete fact types are pointers to structs. Facts stay in memory for
// one driver run and are never serialized.
type Fact interface {
	// AFact is a marker method; it has no behavior.
	AFact()
}

// objectPath names an object by a package-relative path the facts engine
// resolves identically from either side of an export-data boundary:
//
//	F           package-level func, var, or type name
//	T.M         method M of named type T (pointer or value receiver)
//	T.F         field F of struct type T
//
// Objects that have no such path (locals, fields of anonymous structs,
// interface methods obtained via embedding, ...) report ok=false; facts
// about them cannot cross package boundaries, which is fine — importers
// can only name path-addressable objects anyway.
func objectPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		sig, ok := o.Type().(*types.Signature)
		if !ok {
			return "", false
		}
		if recv := sig.Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + o.Name(), true
		}
		if o.Pkg().Scope().Lookup(o.Name()) != obj {
			return "", false
		}
		return o.Name(), true
	case *types.TypeName, *types.Const:
		if o.Pkg().Scope().Lookup(o.Name()) != obj {
			return "", false
		}
		return o.Name(), true
	case *types.Var:
		if !o.IsField() {
			if o.Pkg().Scope().Lookup(o.Name()) != obj {
				return "", false
			}
			return o.Name(), true
		}
		// A field's owner is found by scanning the package scope for the
		// named struct type that declares this exact object.
		scope := o.Pkg().Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == obj {
					return tn.Name() + "." + o.Name(), true
				}
			}
		}
		return "", false
	}
	return "", false
}

// factKey identifies one stored fact: the object's package and path plus
// the concrete fact type (one object may carry facts of several types).
type factKey struct {
	pkg string // package import path
	obj string // objectPath within the package
	typ string // concrete fact type name
}

// FactSet is the engine's store for one driver run: every fact exported by
// every package analyzed so far, keyed by package path, object path and
// fact type. The zero value is not usable; call NewFactSet.
type FactSet struct {
	m map[factKey]Fact
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet {
	return &FactSet{m: make(map[factKey]Fact)}
}

func factTypeName(fact Fact) string {
	t := reflect.TypeOf(fact)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.String()
}

// ExportObjectFact associates fact with obj. The object must belong to the
// package under analysis (enforced by the Pass wrapper); objects without a
// stable path are silently skipped, mirroring the upstream contract that
// facts on unexported locals simply do not propagate.
func (s *FactSet) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	path, ok := objectPath(obj)
	if !ok {
		return
	}
	s.m[factKey{obj.Pkg().Path(), path, factTypeName(fact)}] = fact
}

// ImportObjectFact copies the stored fact about obj (from this package or
// any analyzed dependency) into *fact and reports whether one was found.
// fact must be a pointer of the same concrete type the producer exported.
func (s *FactSet) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path, ok := objectPath(obj)
	if !ok {
		return false
	}
	stored, ok := s.m[factKey{obj.Pkg().Path(), path, factTypeName(fact)}]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(fact)
	sv := reflect.ValueOf(stored)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer || dv.Type() != sv.Type() {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}
