package extract

// Pricings returns how many nodes the extractor's relaxation priced.
func (ex *Extractor) Pricings() int { return ex.pricings }

// Visits returns how many class visits the extractor's relaxation made.
func (ex *Extractor) Visits() int { return ex.visits }
