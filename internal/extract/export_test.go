package extract

// Pricings returns how many nodes the extractor's relaxation priced.
func (ex *Extractor) Pricings() int { return ex.pricings }
