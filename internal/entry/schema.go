package entry

import (
	"fmt"
	"strings"
)

// ObjectClassDef is a lightweight object class definition: the attributes an
// entry of the class must and may carry. This intentionally models only the
// parts of X.500 schema the paper's system depends on.
type ObjectClassDef struct {
	Name     string
	Super    string // name of superior class, "" for abstract roots
	Must     []string
	May      []string
	IsStruct bool // structural vs auxiliary; informational only
}

// Schema is a registry of object class definitions.
type Schema struct {
	classes map[string]*ObjectClassDef
}

// NewSchema creates an empty schema.
func NewSchema() *Schema {
	return &Schema{classes: make(map[string]*ObjectClassDef)}
}

// Register adds a class definition, replacing any prior definition of the
// same (case-insensitive) name.
func (s *Schema) Register(def ObjectClassDef) {
	d := def
	d.Name = strings.ToLower(def.Name)
	d.Super = strings.ToLower(def.Super)
	s.classes[d.Name] = &d
}

// requiredAttrs collects Must attributes of the class and its superiors.
func (s *Schema) requiredAttrs(name string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	for cur := strings.ToLower(name); cur != "" && cur != "top"; {
		if seen[cur] {
			return nil, fmt.Errorf("object class cycle at %q", cur)
		}
		seen[cur] = true
		d, ok := s.classes[cur]
		if !ok {
			return nil, fmt.Errorf("unknown object class %q", cur)
		}
		out = append(out, d.Must...)
		cur = d.Super
	}
	return out, nil
}

// Validate checks that an entry declares known object classes and carries all
// attributes required by them.
func (s *Schema) Validate(e *Entry) error {
	ocs := e.ObjectClasses()
	if len(ocs) == 0 {
		return fmt.Errorf("entry %q has no objectclass", e.DN())
	}
	for _, oc := range ocs {
		if strings.EqualFold(oc, "top") {
			continue
		}
		req, err := s.requiredAttrs(oc)
		if err != nil {
			return fmt.Errorf("entry %q: %w", e.DN(), err)
		}
		for _, a := range req {
			if !e.Has(a) {
				return fmt.Errorf("entry %q: class %q requires attribute %q", e.DN(), oc, a)
			}
		}
	}
	return nil
}

// DefaultSchema returns a schema pre-loaded with the object classes the
// paper's enterprise directory uses: organization, country, organizationalUnit,
// inetOrgPerson (RFC 2798) and supporting classes, plus the synthetic
// department and location classes of the workload generator.
func DefaultSchema() *Schema {
	s := NewSchema()
	s.Register(ObjectClassDef{Name: "organization", Must: []string{"o"}, IsStruct: true})
	s.Register(ObjectClassDef{Name: "country", Must: []string{"c"}, IsStruct: true})
	s.Register(ObjectClassDef{Name: "organizationalUnit", Must: []string{"ou"}, IsStruct: true})
	s.Register(ObjectClassDef{Name: "person", Must: []string{"cn", "sn"},
		May: []string{"telephoneNumber", "description"}, IsStruct: true})
	s.Register(ObjectClassDef{Name: "organizationalPerson", Super: "person",
		May: []string{"title", "ou", "l"}, IsStruct: true})
	s.Register(ObjectClassDef{Name: "inetOrgPerson", Super: "organizationalPerson",
		May:      []string{"mail", "uid", "employeeNumber", "departmentNumber", "serialNumber"},
		IsStruct: true})
	s.Register(ObjectClassDef{Name: "department", Must: []string{"dept", "div"},
		May: []string{"description", "manager"}, IsStruct: true})
	s.Register(ObjectClassDef{Name: "location", Must: []string{"location"},
		May: []string{"l", "street", "postalCode"}, IsStruct: true})
	s.Register(ObjectClassDef{Name: "referral", Must: []string{"ref"}, IsStruct: true})
	return s
}
