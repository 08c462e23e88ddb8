package experiments

import "testing"

// TestCorruptedCatalogSurfacesErrors pins down the error-propagation
// contract of the catalog resolver: a machine name it does not know is
// an error, never a nil machine.
func TestCorruptedCatalogSurfacesErrors(t *testing.T) {
	t.Run("unknown machine name", func(t *testing.T) {
		if _, err := DefaultMachines("summit"); err == nil {
			t.Error("DefaultMachines should reject unknown names")
		}
	})
}
