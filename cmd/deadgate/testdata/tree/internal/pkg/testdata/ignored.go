package ignored

func NeverListed() {}
